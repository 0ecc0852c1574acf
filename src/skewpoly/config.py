"""Ring configuration files (JSON) and map descriptor (de)serialization.

A configuration selects the coefficient ring and the variables::

    {
      "ring": "Qx",
      "flavor": "commuting",
      "vars": [
        {"name": "t1", "aut": {"kind": "identity"}, "der": {"kind": "ddx"}},
        {"name": "t2", "aut": {"kind": "identity"}, "der": {"kind": "zero"}}
      ]
    }

Scalars inside descriptors are canonical strings ("1/2", "x^2 + 1",
"1 + 2*i"); a derivation descriptor is always paired with its variable's
automorphism.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ConfigError, _quoted
from .maps import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DdxDer,
    IdentityAut,
    InnerDer,
    QDiffDer,
    QShiftAut,
    RingMap,
    inner_aut,
    lin_comb,
    q_shift,
    zero_der,
)
from .ore import OreRing
from .parser import MAX_Q_DIGITS, MAX_VARIABLES, parse_scalar
from .scalars import DOMAINS, Scalar


def _kind(data):
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(
            f"map descriptor must be a tagged object: {_quoted(data)}")
    return data["kind"]


def _too_long(numbers) -> bool:
    """Whether an int or Fraction has more than MAX_Q_DIGITS digits above or
    below: certifying a ring multiplies them."""
    return any(max(abs(n.numerator), n.denominator) >= 10**MAX_Q_DIGITS
               for n in numbers)


def _bounded_q(text: str) -> Fraction:
    """q, not too long.  Fraction would expand an exponent before any check,
    so one of 4+ digits is refused."""
    q = None if re.search(r"[eE][-+]?[0-9_]{4}", text) else Fraction(text)
    if q is None or _too_long([q]):
        raise ConfigError(f"q has more than {MAX_Q_DIGITS} digits")
    return q


def _coefficient(data, key: str, domain: type[Scalar]) -> Scalar:
    """The map coefficient ``data[key]``, refused when an integer of its
    canonical form (its fields) is too long."""
    c = parse_scalar(str(data[key]), domain)
    if _too_long(n for field in c._key()
                 for n in (field if isinstance(field, tuple) else (field,))):
        raise ConfigError(f"{key} has more than {MAX_Q_DIGITS} digits")
    return c


def aut_from_data(data, domain: type[Scalar]) -> RingMap:
    kind = _kind(data)
    if kind == "identity":
        return IdentityAut()
    if kind == "inner_aut":
        return inner_aut(_coefficient(data, "c", domain))
    if kind == "q_shift":
        if domain.name != "Qx":
            raise ConfigError("q_shift is only available over Qx")
        return q_shift(_bounded_q(str(data["q"])))
    raise ConfigError(f"unknown automorphism kind {_quoted(kind)}")


def der_from_data(data, domain: type[Scalar], aut: RingMap) -> RingMap:
    kind = _kind(data)
    if kind == "zero":
        return zero_der(aut)
    if kind == "ddx":
        if domain.name != "Qx":
            raise ConfigError("ddx is only available over Qx")
        if aut != IdentityAut():
            raise ConfigError("ddx pairs with the identity automorphism")
        return DdxDer()
    if kind == "inner_der":
        return InnerDer(_coefficient(data, "c", domain), aut)
    if kind == "q_diff":
        if not isinstance(aut, QShiftAut):
            raise ConfigError("q_diff pairs with a q_shift automorphism")
        return QDiffDer(aut)
    if kind == "lin_comb":
        entries = data["terms"]
        if not (isinstance(entries, list)
                and all(isinstance(t, dict) for t in entries)):
            raise ConfigError("lin_comb terms must be a list of objects")
        terms = [
            (_coefficient(t, "coeff", domain),
             der_from_data(t["der"], domain, aut))
            for t in entries
        ]
        return lin_comb(terms, twist=aut)
    raise ConfigError(f"unknown derivation kind {_quoted(kind)}")


def ring_from_data(data, *, samples: int = DEFAULT_SAMPLES,
                   seed: int = DEFAULT_SEED) -> OreRing:
    if not isinstance(data, dict):
        raise ConfigError("ring configuration must be an object")
    ring = data.get("ring")
    if not isinstance(ring, str) or ring not in DOMAINS:
        raise ConfigError(
            f"ring must be one of {sorted(DOMAINS)}, got {_quoted(ring)}")
    domain = DOMAINS[ring]
    flavor = data.get("flavor", "commuting")
    if flavor not in ("commuting", "tower"):  # two labels, one ring
        raise ConfigError(f"unknown flavor {_quoted(flavor)}")
    var_data = data.get("vars")
    if not isinstance(var_data, list) or not var_data:
        raise ConfigError("'vars' must be a non-empty list")
    variables = []
    for entry in var_data:
        if not isinstance(entry, dict):
            raise ConfigError(
                f"variable entry must be an object: {_quoted(entry)}")
        try:
            name = entry["name"]
            aut = aut_from_data(entry["aut"], domain)
            der = der_from_data(entry["der"], domain, aut)
        except KeyError as missing:
            raise ConfigError(f"variable entry is missing {missing}") from None
        except ValueError as exc:  # a map constructor refused its data
            raise ConfigError(str(exc)) from None
        if (not isinstance(name, str) or not name.isidentifier()
                or not name[0].isalpha()):
            raise ConfigError(f"bad variable name {_quoted(name)}")
        if name in domain.units:
            raise ConfigError(
                f"variable name {_quoted(name)} collides with a scalar literal"
            )
        variables.append((name, aut, der))
    # distinct names: OreRing refuses a repeated one, naming the first
    declared = len({name for name, _, _ in variables})
    if declared > MAX_VARIABLES:
        raise ConfigError(f"a ring has at most {MAX_VARIABLES} variables, "
                          f"got {declared}")
    try:
        return OreRing(domain, variables, samples=samples, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_ring(path, *, samples: int = DEFAULT_SAMPLES,
              seed: int = DEFAULT_SEED) -> OreRing:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        # both the decoder and der_from_data recurse once per nesting level
        return ring_from_data(data, samples=samples, seed=seed)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read ring configuration: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"ring configuration is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("ring configuration is nested too deeply") from None


def ring_to_data(ring: OreRing) -> dict:
    return {
        "ring": ring.domain.name,
        "flavor": ring.flavor,
        "vars": [
            {"name": v.name, "aut": v.aut.to_data(), "der": v.der.to_data()}
            for v in ring.variables
        ],
    }
