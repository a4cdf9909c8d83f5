"""Mini-language for loss specifications.

Family specs (case-insensitive)::

    log            log:n=3
    brier          zeroone         const
    cnorm:a=-1     cnorm:a=0.75,n=3
    cd:a=1,1       cd:a=2,1
    normloss:alpha=2      normloss:alpha=inf

Composition specs::

    msum:combiner=<family>;parts=<family>,<family>[;mode=dual]

The table ``_FAMILIES`` declares each family once: its constructor and the
parameter it requires, if any.  Parsing, building and ``LossSpec.resolved``
read it.  Every family takes ``n=<dim>``.  The parameter's range is the
constructor's: parsing builds each family once and reports a constructor's
``ValueError`` at the family.

Values may be ``inf``/``-inf``.  Commas inside a vector value (``cd:a=1,1``)
are disambiguated by the rule that a bare number continues the previous
key's value list.  Malformed input raises :class:`SpecError` carrying the
offending position; a parameter out of range (NaN included) or a cd vector
that does not match ``n`` points at its family, also inside a composition.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .calculus import MSumSpec, compose
from .families import (
    _fmt,
    brier_loss,
    cnorm_loss,
    cobb_douglas_loss,
    constant_loss,
    log_loss,
    norm_loss,
    zero_one_loss,
)
from .geometry import ProperLoss

__all__ = ["SpecError", "LossSpec", "parse_loss_spec", "build_loss", "loss_from_text"]


class SpecError(ValueError):
    """Parse failure with the position of the offending character."""

    def __init__(self, message: str, text: str, position: int):
        self.position = position
        self.text = text
        caret = " " * position + "^"
        super().__init__(f"{message}\n  {text}\n  {caret}")


@dataclass(frozen=True)
class _Family:
    """A loss family of the spec language; its constructor states the
    parameter's range, raising ``ValueError`` outside it."""

    build: Callable[..., ProperLoss]  # build(param, n), build(n) without a param
    key: str | None = None  # the parameter the family requires
    vector: bool = False  # the parameter is a vector; its length is the dimension


_FAMILIES = {
    "log": _Family(log_loss),
    "brier": _Family(brier_loss),
    "zeroone": _Family(zero_one_loss),
    "const": _Family(constant_loss),
    "cnorm": _Family(cnorm_loss, "a"),
    "cd": _Family(cobb_douglas_loss, "a", vector=True),
    "normloss": _Family(norm_loss, "alpha"),
}


@dataclass(frozen=True)
class LossSpec:
    """Parsed loss specification (family or composition)."""

    family: str
    params: dict = field(default_factory=dict)
    combiner: "LossSpec | None" = None
    parts: tuple = ()
    mode: str = "direct"

    @property
    def is_composition(self) -> bool:
        return self.family == "msum"

    def resolved(self, n: int) -> str:
        """Canonical text that reparses to an equivalent spec."""
        if self.is_composition:
            inner = ",".join(p.resolved(n) for p in self.parts)
            return (
                f"msum:combiner={self.combiner.resolved(len(self.parts))};"
                f"parts={inner};mode={self.mode}"
            )
        family = _FAMILIES[self.family]
        value = self.params.get(family.key)
        if family.vector:
            return f"{self.family}:{family.key}=" + ",".join(_fmt(v) for v in value)
        bits = [f"{family.key}={_fmt(value)}"] if family.key else []
        return f"{self.family}:" + ",".join(bits + [f"n={n}"])


def _number(token: str) -> float | None:
    """The value of a numeric token (``inf``/``-inf`` included), else None."""
    try:
        return float(token)
    except ValueError:
        return None


def _parse_params(body: str, text: str, offset: int) -> dict:
    """key=value lists; a bare numeric token extends the previous value."""
    params: dict[str, list[float]] = {}
    pos = offset
    current: str | None = None
    for token in body.split(","):
        raw, eq, val = token.partition("=")
        number = _number(val if eq else token)
        if eq:
            key = raw.strip()
            if not key.isidentifier():
                raise SpecError(f"bad parameter name {key!r}", text, pos)
            if key in params:
                raise SpecError(f"duplicate parameter {key!r}", text, pos)
            if number is None:
                raise SpecError(
                    f"expected a number, got {val!r}", text, pos + len(raw) + 1
                )
            params[key] = [number]
            current = key
        elif number is None:
            raise SpecError(f"cannot parse parameter {token!r}", text, pos)
        elif current is None:
            raise SpecError("value without a parameter name", text, pos)
        else:
            params[current].append(number)
        pos += len(token) + 1
    return {k: (v[0] if len(v) == 1 else v) for k, v in params.items()}


def _parse_family(text: str, fragment: str, offset: int) -> LossSpec:
    """The family spec ``fragment``, which starts at ``offset`` of ``text``."""
    offset += len(fragment) - len(fragment.lstrip())
    head, sep, body = fragment.strip().partition(":")
    name = head.strip().lower()
    family = _FAMILIES.get(name)
    if family is None:
        raise SpecError(f"unknown loss family {name!r}", text, offset)
    params = _parse_params(body, text, offset + len(head) + 1) if sep else {}
    for key in params:
        if key not in (family.key, "n"):
            raise SpecError(
                f"family {name!r} does not take parameter {key!r}", text, offset
            )
    if family.key is not None and family.key not in params:
        raise SpecError(
            f"family {name!r} requires parameter {family.key!r}", text, offset
        )
    if family.vector and isinstance(params[family.key], float):  # a single value
        raise SpecError(
            f"{name} needs a parameter vector of dimension >= 2", text, offset
        )
    for key in ("n",) if family.vector else (family.key, "n"):
        if key in params and not isinstance(params[key], float):
            raise SpecError(f"parameter {key!r} takes a single value", text, offset)
    if "n" in params and not (params["n"].is_integer() and params["n"] >= 2):
        raise SpecError("n must be an integer >= 2", text, offset)
    spec = LossSpec(family=name, params=params)
    try:
        build_loss(spec)
    except ValueError as err:
        raise SpecError(str(err), text, offset) from None
    return spec


def _split_specs(body: str) -> list[str]:
    """Split a comma-separated list of specs, letting bare numbers continue
    the previous spec (so ``cd:a=1,1,log`` splits into ``cd:a=1,1`` and
    ``log``)."""
    chunks: list[str] = []
    for token in body.split(","):
        if chunks and _number(token) is not None:
            chunks[-1] += "," + token
        else:
            chunks.append(token)
    return chunks


def parse_loss_spec(text: str) -> LossSpec:
    """Parse a loss spec; raises SpecError with a caret position on failure."""
    stripped = text.strip()
    if not stripped:
        raise SpecError("empty loss spec", text, 0)
    lead = len(text) - len(text.lstrip())  # positions count in text itself
    if stripped.lower().startswith("msum:"):
        combiner = None
        parts: list[LossSpec] = []
        mode = "direct"
        offset = lead + len("msum:")
        seen = set()
        for seg in stripped[len("msum:"):].split(";"):
            key, sep, val = seg.partition("=")
            key = key.strip().lower()
            if not sep or key not in ("combiner", "parts", "mode"):
                raise SpecError(
                    "expected combiner=/parts=/mode= segment", text, offset
                )
            if key in seen:
                raise SpecError(f"duplicate segment {key!r}", text, offset)
            seen.add(key)
            if key == "combiner":
                if val.strip().lower().startswith("msum:"):
                    raise SpecError("nested compositions are not supported", text, offset)
                combiner = _parse_family(text, val, offset + len(seg) - len(val))
            elif key == "parts":
                at = offset + len(seg) - len(val)
                for chunk in _split_specs(val):
                    if chunk.strip().lower().startswith("msum:"):
                        raise SpecError(
                            "nested compositions are not supported", text, at
                        )
                    parts.append(_parse_family(text, chunk, at))
                    at += len(chunk) + 1
            else:
                mode = val.strip().lower()
                if mode not in ("direct", "dual"):
                    raise SpecError(
                        f"mode must be 'direct' or 'dual', got {mode!r}", text, offset
                    )
            offset += len(seg) + 1
        if combiner is None:
            raise SpecError("composition needs a combiner= segment", text, lead)
        if len(parts) < 2:
            raise SpecError("composition needs at least two parts", text, lead)
        return LossSpec(
            family="msum", combiner=combiner, parts=tuple(parts), mode=mode
        )
    return _parse_family(text, text, 0)


def build_loss(spec: LossSpec, n: int | None = None) -> ProperLoss:
    """Instantiate a parsed spec at dimension n (default 2 where not implied)."""
    if spec.is_composition:
        parts = tuple(build_loss(p, n) for p in spec.parts)
        combiner = build_loss(spec.combiner, len(parts))
        return compose(MSumSpec(combiner=combiner, parts=parts, mode=spec.mode))

    family = _FAMILIES[spec.family]
    dim = spec.params.get("n")
    dim = int(dim) if dim is not None else n
    if family.vector:
        a = spec.params[family.key]
        if dim is not None and dim != len(a):
            raise ValueError(
                f"{spec.family} parameter vector has dimension {len(a)}, "
                f"context wants {dim}"
            )
        return family.build(a)
    param = () if family.key is None else (spec.params[family.key],)
    return family.build(*param, 2 if dim is None else dim)


def loss_from_text(text: str, n: int | None = None) -> ProperLoss:
    return build_loss(parse_loss_spec(text), n)
