import pltl_learn
from pltl_learn import LearnConfig, learn
from pltl_learn.benchgen import safety_sample


def test_readme_quick_start_and_public_names():
    result = learn(safety_sample(), LearnConfig(max_size=4, max_depth=2))
    assert [pltl_learn.print_pltl(f) for f in result.formulas] == ["P>0.605957 [G(!h)]"]
    assert result.margins == (0.4306640625,)
    for name in pltl_learn.__all__:
        assert getattr(pltl_learn, name) is not None, name
