"""One set-up as a CLI user pays it: interpreter start, ``import proxmatch.cli``,
and the build and write of the scenario JSON.

    python3 -m perfbench.setup_probe PARAMS_JSON OUT_PATH
"""

import json
import sys

if __name__ == "__main__":
    from perfbench import use_checkout_source

    use_checkout_source()
    from proxmatch import cli  # noqa: F401  (the import the set-up time covers)
    from proxmatch import io

    from perfbench.workloads import scenario

    params_json, out_path = sys.argv[1:3]
    io.write_scenario(out_path, scenario(json.loads(params_json)))
