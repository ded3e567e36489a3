"""Terminal visualisation: ASCII line and bar charts for figure series.

The offline environment has no plotting backend; these renderers turn the
experiments' series into readable terminal charts (the CLI's ``--plot``
flag), so the figures can be *seen*, not just tabulated.
"""

from repro.viz.ascii_charts import bar_chart, line_chart

__all__ = ["line_chart", "bar_chart"]
