"""Textual grammar for angle sets.

Forms: "0" (the real axis), "pi*p/q" (rational multiple of pi), "deg:r"
(rational degrees), "param:k" (the formal direction t**k).  Directions are
mod pi, so specs normalize to an exponent in [0, 1): "pi*7/6" and "pi*1/6"
name the same direction, as do "0", "pi*0/1" and "deg:180".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import ring_context
from .cyclotomic import CyclotomicElement
from .geometry import AngleSet, UnitAngle
from .ratfunc import ParamRational
from .scalars import Rational


@dataclass(frozen=True)
class AngleSpec:
    text: str  # normalized form
    angle: UnitAngle


def _from_pi_multiple(frac: Fraction) -> AngleSpec:
    frac %= 1  # directions are mod pi
    if frac == 0:
        return AngleSpec("0", UnitAngle(Rational(1)))
    text = f"pi*{frac.numerator}/{frac.denominator}"
    value = CyclotomicElement.root_of_unity(2 * frac.denominator, frac.numerator)
    return AngleSpec(text, UnitAngle(value))


def parse_angle(text: str) -> AngleSpec:
    text = text.strip()
    if not text:
        raise ValueError("empty angle spec")
    if text == "0":
        return _from_pi_multiple(Fraction(0))
    if text.startswith("pi*"):
        try:
            frac = Fraction(text[3:])
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"bad rational in {text!r}") from err
        return _from_pi_multiple(frac)
    if text.startswith("deg:"):
        try:
            degrees = Fraction(text[4:])
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"bad rational in {text!r}") from err
        return _from_pi_multiple(degrees / 180)
    if text.startswith("param:"):
        try:
            k = int(text[6:])
        except ValueError as err:
            raise ValueError(f"bad exponent in {text!r}") from err
        if k < 1:
            raise ValueError("param exponent must be a positive integer")
        return AngleSpec(f"param:{k}", UnitAngle(ParamRational.t_power(k)))
    raise ValueError(
        f"cannot parse angle {text!r}; expected 0, pi*p/q, deg:r or param:k"
    )


def parse_angle_list(text: str) -> tuple[AngleSet, tuple[str, ...]]:
    """Parse a comma-separated spec list into an AngleSet.

    Returns the set and the normalized spec texts in the set's sorted order.
    Parametric powers may only be mixed with the real-axis spec "0".
    """
    specs = [parse_angle(part) for part in text.split(",") if part.strip()]
    if not specs:
        raise ValueError("no angles given")
    has_param = any(s.text.startswith("param:") for s in specs)
    if has_param:
        stray = [s.text for s in specs if not s.text.startswith("param:") and s.text != "0"]
        if stray:
            raise ValueError(
                f"parametric and numeric angles cannot be mixed: {', '.join(stray)}"
            )
    angle_set = AngleSet([s.angle for s in specs])
    by_angle = {s.angle: s.text for s in specs}
    return angle_set, tuple(by_angle[a] for a in angle_set)


def parse_value_spec(text: str):
    """A complex value for lattice comparison: "re,im" rationals, or
    "angles:<spec-list>" for the generator of a three-direction closure."""
    text = text.strip()
    if text.startswith("angles:"):
        angle_set, _ = parse_angle_list(text[len("angles:"):])
        if len(angle_set) != 3 or not angle_set.contains_one():
            raise ValueError(
                "a lattice generator needs exactly three directions including 0"
            )
        return ring_context(angle_set).generators[1]
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im' or 'angles:...', got {text!r}")
    try:
        re = Fraction(parts[0])
        im = Fraction(parts[1])
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad rational in {text!r}") from err
    i_unit = CyclotomicElement.root_of_unity(4, 1)
    return re + im * i_unit
