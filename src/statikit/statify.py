"""End-to-end statification: stratify the presentation kernel, refine to a
smooth fan, pull the module back to every chart, and certify staticity.
"""

import hashlib
import json
from collections import namedtuple

from .errors import NonSmoothChartError, SupportMismatchError, UnsupportedSupportError
from .groebner import groebner_stratification
from .linalg import inverse_unimodular
from .polyhedral import Fan, orthant, refines, stratification_to_smooth_fan
from .staticity import ModulePresentation, SmoothChart, is_static, log_tor_dim_at_most


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def substitution_matrix(target_chart, source_chart):
    """Exponent matrix E with target variable j mapping to prod_i z_i^E[i][j].

    Induced by the dual-lattice inclusion: E = V_source * V_target^{-1}
    where V holds the chart's variable rays as rows. Entries are
    nonnegative whenever the source cone sits inside the target cone.
    """
    vt = [list(r) for r in target_chart.variable_rays]
    vs = [list(r) for r in source_chart.variable_rays]
    e = _matmul(vs, [list(c) for c in zip(*inverse_unimodular(vt))])
    for row in e:
        for x in row:
            if x < 0:
                raise ValueError("source chart is not contained in the target chart")
    return [tuple(r) for r in e]


class ToricModification:
    """A fan refinement of a chart cone with per-chart monomial substitutions."""

    __slots__ = ("target_chart", "fan", "charts")

    def __init__(self, target_chart, fan):
        if fan.support.key() != target_chart.cone.key():
            raise SupportMismatchError("modification fan must live on the chart cone")
        self.target_chart = target_chart
        self.fan = fan
        charts = []
        for cone in fan.max_cones:
            if not cone.is_smooth():
                raise NonSmoothChartError("modification charts must be smooth")
            chart = SmoothChart(cone)
            charts.append((cone, chart, substitution_matrix(target_chart, chart)))
        self.charts = tuple(charts)

    @classmethod
    def identity(cls, chart):
        return cls(chart, Fan(chart.cone, [chart.cone]))

    def chart_for(self, cone):
        for c, chart, e in self.charts:
            if c.key() == cone.key():
                return chart, e
        raise ValueError("cone is not a maximal cone of the modification")


def pullback_presentation(presentation, modification, cone):
    """Substitute chart monomials into the presentation matrix.

    An identity substitution returns the presentation itself, with the
    resolution it has already built.
    """
    chart, e = modification.chart_for(cone)
    if e == [tuple(int(i == j) for j in range(chart.nvars)) for i in range(chart.nvars)]:
        return presentation
    rows = []
    for row in presentation.rows:
        rows.append([p.substitute_monomials(e, chart.nvars) for p in row])
    return ModulePresentation(chart, rows)


# substitution: rows of the exponent matrix, as substitution_matrix returns
ChartReport = namedtuple("ChartReport", "cone substitution presentation static reports")


class TheoremCheck(namedtuple("TheoremCheck", "fan_refines_stratification charts all_static")):
    """Both sides of the staticity criterion, computed independently.

    charts holds (cone, static) pairs.
    """

    __slots__ = ()

    @property
    def agrees(self):
        return self.fan_refines_stratification == self.all_static


class StatificationCertificate:
    """Replayable record of a statification run."""

    __slots__ = (
        "presentation",
        "kernel",
        "stratification",
        "fan",
        "charts",
        "audit",
    )

    def __init__(self, presentation, kernel, stratification, fan, charts, audit=None):
        self.presentation = presentation
        self.kernel = kernel
        self.stratification = stratification
        self.fan = fan
        self.charts = tuple(charts)
        self.audit = audit

    @property
    def all_static(self):
        return all(c.static for c in self.charts)

    def replay(self):
        """Re-run every embedded check; returns a dict of verdict bits.

        A chart matches when its substitution and presentation are the ones the
        fan gives and its staticity verdict and Tor reports, witnesses
        included, replay.
        """
        out = {}
        out["kernel_matches"] = self.presentation.kernel() == self.kernel
        strat2 = groebner_stratification(self.kernel, self.stratification.support)
        out["stratification_matches"] = strat2.stratification.key() == self.stratification.stratification.key()
        out["fan_refines"] = refines(self.fan, self.stratification.stratification)
        modification = ToricModification(self.presentation.chart, self.fan)
        substitutions = {cone.key(): e for cone, _chart, e in modification.charts}
        chart_bits = []
        for rep in self.charts:
            built = substitutions.get(rep.cone.key()) == rep.substitution and (
                pullback_presentation(self.presentation, modification, rep.cone) == rep.presentation
            )
            chart_bits.append(built and log_tor_dim_at_most(rep.presentation, 1) == (rep.static, list(rep.reports)))
        out["charts_match"] = all(chart_bits)
        return out


def _require_orthant_chart(presentation):
    chart = presentation.chart
    if chart.cone.key() != orthant(chart.nvars).key():
        raise UnsupportedSupportError("statification expects a presentation on the orthant chart")
    return chart


def compute_statification(presentation, audit=False, fail_fast=False):
    """Statify a module on the orthant chart.

    Stratifies the syzygy kernel, refines to a smooth fan, pulls the module
    back to every maximal cone, and certifies each pullback static. The
    returned certificate replays all checks from stored data.
    """
    chart = _require_orthant_chart(presentation)
    kernel = presentation.kernel()
    strat = groebner_stratification(kernel, chart.cone)
    fan = stratification_to_smooth_fan(strat.stratification)
    modification = ToricModification(chart, fan)
    charts = []
    for cone, _chart, e in modification.charts:
        pulled = pullback_presentation(presentation, modification, cone)
        holds, reports = log_tor_dim_at_most(pulled, 1)
        charts.append(ChartReport(cone=cone, substitution=e, presentation=pulled, static=holds, reports=tuple(reports)))
        if fail_fast and not holds:
            break
    audit_data = None
    if audit and presentation.ncols >= 1:
        doubled = ModulePresentation(
            chart,
            [list(row) + [row[-1]] for row in presentation.rows],
        )
        kernel2 = doubled.kernel()
        strat2 = groebner_stratification(kernel2, chart.cone)
        audit_data = {
            "second_kernel": kernel2,
            "fan_refines_second": refines(fan, strat2.stratification),
        }
    return StatificationCertificate(presentation, kernel, strat, fan, charts, audit_data)


def verify_theorem_instance(presentation, fan):
    """Independently evaluate both sides of the staticity criterion.

    Side one: does the fan refine the kernel stratification. Side two: is
    the pullback static on every maximal cone. The two computations share
    no intermediate results.
    """
    chart = _require_orthant_chart(presentation)
    if fan.support.key() != chart.cone.key():
        raise SupportMismatchError("fan support must equal the chart cone")
    kernel = presentation.kernel()
    strat = groebner_stratification(kernel, chart.cone)
    side_refines = refines(fan, strat.stratification)

    modification = ToricModification(chart, fan)
    verdicts = []
    for cone, _chart, _e in modification.charts:
        verdicts.append((cone, is_static(pullback_presentation(presentation, modification, cone))))
    return TheoremCheck(
        fan_refines_stratification=side_refines,
        charts=tuple(verdicts),
        all_static=all(v for _, v in verdicts),
    )


def input_digest(obj):
    """Stable digest of a JSON-serializable object for certificate audits."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
