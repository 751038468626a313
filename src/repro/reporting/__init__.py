"""Result rendering: text tables, ASCII plots, CSV/JSON export.

The execution environment has no plotting stack, so figures are rendered
as ASCII line plots — good enough to eyeball every trend the paper plots —
and every series is exportable to CSV/JSON for external plotting.
"""

# ``ascii_plot`` is also the name of its submodule, so it is bound eagerly:
# importing the submodule later would rebind the package attribute.
from .ascii_plot import ascii_plot
from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "export": ["write_csv", "write_json"],
    "tables": ["format_table"],
})

__all__ += ["ascii_plot"]
