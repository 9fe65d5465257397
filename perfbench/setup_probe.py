"""Set-up as a fresh process pays it: import melita from the checkout's
``src/``, parse the experiment config given as the only argument, build
its domain, then print ``ready``. ``bench.measure_setup`` times this."""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from melita.domains import make_domain  # noqa: E402
from melita.harness import load_config  # noqa: E402

config = load_config(sys.argv[1])
make_domain(config.run_template["domain"], config.run_template["domain_params"])
print("ready", flush=True)
