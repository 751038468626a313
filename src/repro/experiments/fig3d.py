"""Fig. 3d — Hz_s_intra profile across the FL for several device sizes.

The paper's observation: the out-of-plane stray field is *not* uniform
over the FL cross-section — its magnitude is largest at the center and
smaller (eventually positive) toward the edge; smaller devices see larger
center fields.
"""

from __future__ import annotations

from ..core.intra import IntraCellModel
from ..units import am_to_oe, nm_to_m
from .base import Comparison, ExperimentResult

#: Device sizes of the paper's panel [nm].
ECDS_NM = (20.0, 35.0, 55.0, 90.0)


def run(n_points=61, margin=0.95):
    """Radial stray-field profiles for the four paper sizes."""
    model = IntraCellModel()
    series = {}
    center_values = {}
    edge_values = {}
    for ecd_nm in ECDS_NM:
        positions, hz = model.radial_profile(
            nm_to_m(ecd_nm), n_points=n_points, margin=margin)
        series[f"eCD={ecd_nm:.0f}nm"] = (positions * 1e9, am_to_oe(hz))
        center_values[ecd_nm] = am_to_oe(hz[n_points // 2])
        edge_values[ecd_nm] = am_to_oe(hz[-1])

    # The paper's claims: (i) |Hz| smaller at the edge than at the center,
    # (ii) the smaller the eCD, the larger the center magnitude
    # (20 vs 35 nm is nearly saturated in our calibration; see DESIGN.md).
    edge_smaller = all(abs(edge_values[e]) < abs(center_values[e])
                       for e in ECDS_NM)
    ordering = (abs(center_values[35.0]) > abs(center_values[55.0])
                > abs(center_values[90.0]))
    ordering_20 = abs(center_values[20.0]) >= 0.95 * abs(
        center_values[35.0])

    comparisons = [
        Comparison(
            metric="|Hz| at edge < |Hz| at center (all sizes)",
            paper=1.0,
            measured=float(edge_smaller),
            passed=edge_smaller,
            note="non-uniform profile over the FL cross-section"),
        Comparison(
            metric="center |Hz| ordering 35>55>90 nm",
            paper=1.0,
            measured=float(ordering),
            passed=ordering,
            note="smaller device, larger stray field"),
        Comparison(
            metric="center |Hz| at 20 nm >= 0.95x 35 nm",
            paper=1.0,
            measured=float(ordering_20),
            passed=ordering_20,
            note=("paper extrapolates to ~-500 Oe at 20 nm; our "
                  "calibrated two-loop model saturates (DESIGN.md)")),
    ]

    headers = ["eCD (nm)", "Hz center (Oe)", "Hz near edge (Oe)"]
    rows = [(e, center_values[e], edge_values[e]) for e in ECDS_NM]

    return ExperimentResult(
        experiment_id="fig3d",
        title="Hz_s_intra across the FL cross-section vs device size",
        headers=headers,
        rows=rows,
        series=series,
        comparisons=comparisons,
        extras={"center_values_oe": center_values,
                "edge_values_oe": edge_values},
    )
