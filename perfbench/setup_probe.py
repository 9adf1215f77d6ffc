"""Set-up as a user pays it: a fresh interpreter imports sepvol and warms each job once.

run.py times this script end to end, several times per run, for ``setup_s``.
"""

import bootstrap

bootstrap.prepare()

import jobs  # noqa: E402  (needs the import path set by prepare)

jobs.warm_up()
