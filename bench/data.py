"""Seeded, weather-shaped synthetic data: 21 features at a 600 s cadence,
quantised to hundredths like the 10-minute weather table of the paper.

Values are generated as integer hundredths, so the float64 arrays the
oracles use are bit-identical to what ``float()`` reads back from the CSV.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

INTERVAL_S = 600
SLOTS_PER_DAY = 86400 // INTERVAL_S
START_EPOCH = int(datetime(2020, 1, 1, 0, 10, tzinfo=timezone.utc).timestamp())
TIMESTAMP_COLUMN = "date"

# (column, level, daily amplitude, noise scale, lower clip, upper clip)
FEATURES = (
    ("p (mbar)", 989.0, 0.6, 0.08, None, None),
    ("T (degC)", 9.5, 4.0, 0.05, None, None),
    ("Tpot (K)", 283.4, 4.0, 0.05, None, None),
    ("Tdew (degC)", 5.0, 1.5, 0.04, None, None),
    ("rh (%)", 76.0, -12.0, 0.3, 5.0, 100.0),
    ("VPmax (mbar)", 13.5, 4.0, 0.05, 0.5, None),
    ("VPact (mbar)", 9.5, 1.0, 0.03, 0.3, None),
    ("VPdef (mbar)", 4.0, 3.0, 0.05, 0.0, None),
    ("sh (g/kg)", 6.0, 0.6, 0.02, 0.2, None),
    ("H2OC (mmol/mol)", 9.6, 1.0, 0.03, 0.3, None),
    ("rho (g/m**3)", 1216.0, -15.0, 0.4, None, None),
    ("wv (m/s)", 2.1, 0.8, 0.02, 0.0, None),
    ("max. wv (m/s)", 3.5, 1.2, 0.03, 0.0, None),
    ("wd (deg)", 175.0, 20.0, 0.8, 0.0, 360.0),
    ("rain (mm)", -0.4, 0.0, 0.005, 0.0, None),
    ("raining (s)", -60.0, 0.0, 3.0, 0.0, 600.0),
    ("SWDR (W/m**2)", 40.0, 160.0, 0.6, 0.0, None),
    ("PAR (umol/m**2/s)", 80.0, 320.0, 1.2, 0.0, None),
    ("max. PAR (umol/m**2/s)", 95.0, 360.0, 1.4, 0.0, None),
    ("Tlog (degC)", 18.0, 3.0, 0.05, None, None),
    ("CO2 (ppm)", 425.0, -8.0, 0.5, 300.0, None),
)

COLUMNS = tuple(f[0] for f in FEATURES)


def weather_hundredths(rows: int, seed: int) -> np.ndarray:
    """(features, rows) int64 array of values in hundredths.

    Each feature is level + a daily cycle + AR(1) weather noise, clipped to
    its physical range; the result is quantised to 0.01.
    """
    rng = np.random.default_rng(seed)
    n_feat = len(FEATURES)
    level = np.array([f[1] for f in FEATURES])[:, None]
    amp = np.array([f[2] for f in FEATURES])[:, None]
    scale = np.array([f[3] for f in FEATURES])[:, None]
    phase0 = rng.uniform(-0.3, 0.3, size=(n_feat, 1))
    slot = np.arange(rows) % SLOTS_PER_DAY
    daily = np.sin(2 * np.pi * slot / SLOTS_PER_DAY - np.pi / 2 + phase0)

    # AR(1) noise with phi close to 1, so the series wander like weather
    # does; the recursion steps through time for all features at once.
    phi = 0.995
    shocks = rng.standard_normal((n_feat, rows)) * scale
    noise = np.empty_like(shocks)
    acc = np.zeros(n_feat)
    for t in range(rows):
        acc = phi * acc + shocks[:, t]
        noise[:, t] = acc
    x = level + amp * daily + noise * 8.0
    for j, (_, _, _, _, lo, hi) in enumerate(FEATURES):
        if lo is not None or hi is not None:
            x[j] = np.clip(x[j], lo, hi)
    return np.rint(x * 100.0).astype(np.int64)


def as_values(hundredths: np.ndarray) -> np.ndarray:
    """Float64 values exactly as the program parses them from the CSV."""
    return hundredths / 100.0


def write_csv(path, hundredths: np.ndarray) -> None:
    """CSV with an ISO timestamp column followed by the 21 feature columns."""
    n_feat, rows = hundredths.shape
    values = as_values(hundredths).T.tolist()
    row_fmt = "%s," + ",".join(["%.2f"] * n_feat) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(TIMESTAMP_COLUMN + "," + ",".join(COLUMNS) + "\n")
        for i, row in enumerate(values):
            ts = datetime.fromtimestamp(START_EPOCH + i * INTERVAL_S, tz=timezone.utc)
            f.write(row_fmt % (ts.strftime("%Y-%m-%d %H:%M:%S"), *row))
