"""BLE proximity pipeline: who is operating which tagged asset, from RSSI alone.

Tags on assets broadcast their activity state; badges on workers log the
received signal strength. A fitted log-distance model plus a scalar Kalman
filter turn each badge's RSSI stream into one distance estimate per activity
session, and an event-driven matcher assigns every session the closest free
badge, labeling each assignment sure or unsure by its distance margin.

The package root exports nothing; import from the submodules.
"""
