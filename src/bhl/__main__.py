"""``python -m bhl``: the same command line as the ``bhl`` script, ended
as ``python -m bhl.cli`` is, by `bhl.cli.exit_after_flush`: once stdout
and stderr are flushed, ``os._exit`` skips the interpreter's teardown."""

from .cli import exit_after_flush, main

exit_after_flush(main())
