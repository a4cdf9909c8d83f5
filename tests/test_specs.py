"""Loss spec mini-language: parsing, dimension resolution, round trips."""

import numpy as np
import pytest

import lossgeom as lg
from lossgeom.specs import SpecError, build_loss, loss_from_text, parse_loss_spec


@pytest.mark.parametrize(
    "text,name",
    [
        ("log", "log"),
        ("LOG", "log"),
        ("brier", "brier"),
        ("zeroone", "zeroone"),
        ("const", "const"),
        ("cnorm:a=-1", "cnorm:a=-1"),
        ("cd:a=1,1", "cd:a=1,1"),
        ("normloss:alpha=2", "normloss:alpha=2"),
    ],
)
def test_family_specs_build(text, name):
    loss = loss_from_text(text)
    assert loss.name == name
    assert loss.n == 2


def test_dimension_from_spec_parameter():
    assert loss_from_text("log:n=3").n == 3
    assert loss_from_text("cnorm:a=-1,n=4").n == 4


def test_dimension_from_context():
    assert loss_from_text("brier", n=3).n == 3


def test_cd_dimension_comes_from_parameter_vector():
    loss = loss_from_text("cd:a=1,2,3")
    assert loss.n == 3
    with pytest.raises(ValueError):
        loss_from_text("cd:a=1,1", n=3)


def test_sentinel_values():
    assert loss_from_text("cnorm:a=-inf").name == "const"
    assert loss_from_text("normloss:alpha=inf").n == 2


def test_msum_spec_builds():
    loss = loss_from_text("msum:combiner=const;parts=log,brier", n=2)
    p = np.array([0.3, 0.7])
    expected = lg.log_loss(2).loss(p) + lg.brier_loss(2).loss(p)
    np.testing.assert_allclose(loss.loss(p), expected, atol=1e-12)


def test_msum_dual_mode():
    loss = loss_from_text("msum:combiner=zeroone;parts=log,log;mode=dual", n=2)
    p = np.array([0.3, 0.7])
    assert float(loss.rho(p)) == pytest.approx(
        0.5 * float(lg.log_loss(2).rho(p)), abs=1e-5
    )


def test_msum_with_vector_valued_part_parameter():
    # the comma inside cd:a=1,1 must not split the parts list
    loss = loss_from_text("msum:combiner=const;parts=cd:a=1,1,log", n=2)
    p = np.array([0.4, 0.6])
    expected = lg.cobb_douglas_loss([1, 1]).loss(p) + lg.log_loss(2).loss(p)
    np.testing.assert_allclose(loss.loss(p), expected, atol=1e-12)


def test_resolved_specs_reparse_to_equivalent_losses(rng):
    # one spec of every family in the table, both sentinels and both modes
    texts = [
        "log",
        "brier",
        "zeroone",
        "const",
        "cnorm:a=0.75",
        "cnorm:a=-inf",
        "cd:a=2,1",
        "normloss:alpha=1.5",
        "normloss:alpha=inf",
        "msum:combiner=const;parts=log,brier",
        "msum:combiner=cnorm:a=0.5;parts=log,brier;mode=dual",
    ]
    p = np.array([0.35, 0.65])
    for text in texts:
        spec = parse_loss_spec(text)
        loss = build_loss(spec, 2)
        resolved = spec.resolved(2)
        rebuilt = loss_from_text(resolved, 2)
        assert parse_loss_spec(resolved).resolved(2) == resolved
        np.testing.assert_allclose(rebuilt.loss(p), loss.loss(p), atol=1e-12)


@pytest.mark.parametrize(
    "text,position,message",
    [
        ("msum:combiner=const;parts=log,cnorm:a=2", 30, "cnorm exponent"),
        ("msum:combiner=const;parts=cd:a=1,-1,log", 26, "cd parameters"),
        ("msum:combiner=normloss:alpha=0.5;parts=log,log", 14, "normloss exponent"),
    ],
)
def test_range_errors_point_at_their_family(text, position, message):
    with pytest.raises(SpecError, match=message) as info:
        parse_loss_spec(text)
    assert info.value.position == position
    assert str(info.value).endswith("\n  " + " " * position + "^")


@pytest.mark.parametrize(
    "text,family,message",
    [
        ("cnorm:a=nan", "cnorm", "cnorm exponent"),
        ("normloss:alpha=nan", "normloss", "normloss exponent"),
        ("cd:a=nan,1", "cd", "cd parameters"),
        ("cd:a=inf,1", "cd", "cd parameters"),
        ("msum:combiner=cnorm:a=nan;parts=log,log", "cnorm", "cnorm exponent"),
        ("cd:a=1,2,n=3", "cd", "cd parameter vector has dimension 2, context wants 3"),
    ],
)
def test_constructor_errors_point_at_their_family(text, family, message):
    # the range a constructor states, NaN and inf included, and the cd
    # dimension rule are reported at the family, as the spec's own errors are
    with pytest.raises(SpecError, match=message) as info:
        parse_loss_spec(text)
    assert info.value.position == text.index(family)
    assert str(info.value).endswith("\n  " + " " * text.index(family) + "^")


@pytest.mark.parametrize("lead", ["", "  ", "\t "])
@pytest.mark.parametrize(
    "text,family",
    [
        ("msum:combiner=const;parts=log,cnorm:a=2", "cnorm"),
        ("msum:combiner=const;parts=log, cnorm:a=2", "cnorm"),
        ("msum: combiner= normloss:alpha=0.5;parts=log,log", "normloss"),
        ("cnorm:a=2", "cnorm"),
    ],
)
def test_caret_sits_under_the_family_with_surrounding_whitespace(lead, text, family):
    spec = lead + text + " "
    with pytest.raises(SpecError) as info:
        parse_loss_spec(spec)
    assert info.value.position == spec.index(family)
    assert str(info.value).endswith("\n  " + " " * spec.index(family) + "^")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "2.5", "1"])
@pytest.mark.parametrize("prefix", ["", "  msum:combiner=const;parts=brier,"])
def test_non_integer_dimension_is_a_spec_error(value, prefix):
    text = prefix + "log:n=" + value
    with pytest.raises(SpecError, match="n must be an integer >= 2") as info:
        parse_loss_spec(text)
    assert info.value.position == text.index("log")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nosuch",
        "cnorm",  # missing a
        "cnorm:a=0",  # forbidden exponent (raised at build)
        "cnorm:b=1",
        "log:n=1",
        "normloss:alpha=0.5",
        "msum:parts=log,brier",  # no combiner
        "msum:combiner=const;parts=log",  # one part
        "msum:combiner=const;parts=log,brier;mode=sideways",
        "msum:combiner=msum:combiner=const;parts=log,log;parts=log,log",
    ],
)
def test_malformed_specs_rejected(text):
    with pytest.raises(ValueError):
        loss_from_text(text)


def test_spec_error_carries_position():
    try:
        parse_loss_spec("cnorm:a=x")
    except SpecError as err:
        assert err.position > 0
        assert "^" in str(err)
    else:
        raise AssertionError("expected SpecError")
