"""Table 6 of the paper (SOSP'21 §9), copied by hand: checkpoint stop
times and restore times of five applications, in milliseconds.

These 30 cells are the only published numbers the simulator's cost
model can be held against, so ``paper_apps`` reports its mean relative
distance from them (``paper.err_pct``).  The other four workloads have
no published counterpart: their simulated numbers are unvalidated.
"""

APPS = ("firefox", "mosh", "pillow", "tomcat", "vim")

#: Row order of every tuple in :data:`PAPER_MS`.
ROWS = ("ckpt_mem", "ckpt_full", "ckpt_incr",
        "rest_mem", "rest_full", "rest_lazy")

PAPER_MS = {
    "firefox": (1.4, 1.8, 1.9, 0.9, 12.4, 6.3),
    "mosh": (0.4, 0.4, 0.4, 0.2, 1.9, 0.9),
    "pillow": (0.7, 0.9, 0.6, 0.2, 8.2, 0.2),
    "tomcat": (2.7, 3.2, 2.1, 0.5, 33.6, 3.1),
    "vim": (0.7, 0.8, 0.7, 0.3, 4.1, 2.4),
}


def err_pct(measured_ms):
    """Mean |measured − paper| ÷ paper over the 30 cells, in percent.

    ``measured_ms`` maps app name → six values in :data:`ROWS` order.
    """
    cells = [abs(measured - paper) / paper
             for app in APPS
             for measured, paper in zip(measured_ms[app], PAPER_MS[app])]
    return 100.0 * sum(cells) / len(cells)
