import sys
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from subres import MultiRootSet, Rat

sys.path.insert(0, str(Path(__file__).resolve().parent))
# The scripts' fixed inputs (run_crosschecks, parity) are shared with tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

settings.register_profile(
    "exact",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    acceptance = sys.modules.get("test_acceptance")
    verdicts = getattr(acceptance, "VERDICTS", None) if acceptance else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)


@st.composite
def rationals(draw, num_bound=9, den_bound=4):
    num = draw(st.integers(-num_bound, num_bound))
    den = draw(st.integers(1, den_bound))
    return Rat(num, den)


@st.composite
def rootsets(draw, max_blocks=3, max_mult=3, den_bound=4):
    m = draw(st.integers(1, max_blocks))
    roots = draw(
        st.lists(
            rationals(den_bound=den_bound),
            min_size=m,
            max_size=m,
            unique_by=lambda r: (r.numerator, r.denominator),
        )
    )
    mults = draw(st.lists(st.integers(1, max_mult), min_size=m, max_size=m))
    return MultiRootSet(list(zip(roots, mults)))
