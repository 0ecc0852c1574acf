"""Ring configuration files (JSON) and map descriptor (de)serialization.

A configuration selects the coefficient ring, the flavor and the variables::

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

from .errors import ConfigError
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
from .ore import Flavor, OreRing
from .parser import MAX_Q_DIGITS, parse_scalar
from .scalars import DOMAINS, ScalarDomain

_RESERVED = {"Q": set(), "Qx": {"x"}, "HQ": {"i", "j", "k"}}


def _bounded_q(text: str) -> Fraction:
    """q, with at most MAX_Q_DIGITS digits above and below.  Fraction would
    expand an exponent before any check, so one of 4+ digits is refused."""
    q = None if re.search(r"[eE][-+]?[0-9_]{4}", text) else Fraction(text)
    if q is None or max(abs(q.numerator), q.denominator) >= 10**MAX_Q_DIGITS:
        raise ConfigError(f"q has more than {MAX_Q_DIGITS} digits")
    return q


def aut_from_data(data, domain: ScalarDomain) -> RingMap:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"map descriptor must be a tagged object: {data!r}")
    kind = data["kind"]
    if kind == "identity":
        return IdentityAut()
    if kind == "inner_aut":
        return inner_aut(parse_scalar(str(data["c"]), domain))
    if kind == "q_shift":
        if domain.name != "Qx":
            raise ConfigError("q_shift is only available over Qx")
        return q_shift(_bounded_q(str(data["q"])))
    raise ConfigError(f"unknown automorphism kind {kind!r}")


def der_from_data(data, domain: ScalarDomain, aut: RingMap) -> RingMap:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"map descriptor must be a tagged object: {data!r}")
    kind = data["kind"]
    if kind == "zero":
        return zero_der(aut)
    if kind == "ddx":
        if domain.name != "Qx":
            raise ConfigError("ddx is only available over Qx")
        if aut != IdentityAut():
            raise ConfigError("ddx pairs with the identity automorphism")
        return DdxDer()
    if kind == "inner_der":
        return InnerDer(parse_scalar(str(data["c"]), domain), aut)
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
            (parse_scalar(str(t["coeff"]), domain),
             der_from_data(t["der"], domain, aut))
            for t in entries
        ]
        return lin_comb(terms, twist=aut)
    raise ConfigError(f"unknown derivation kind {kind!r}")


def ring_from_data(data, *, samples: int = DEFAULT_SAMPLES,
                   seed: int = DEFAULT_SEED) -> OreRing:
    if not isinstance(data, dict):
        raise ConfigError("ring configuration must be an object")
    ring = data.get("ring")
    if not isinstance(ring, str) or ring not in DOMAINS:
        raise ConfigError(
            f"ring must be one of {sorted(DOMAINS)}, got {ring!r}")
    domain = DOMAINS[ring]
    flavor = data.get("flavor", "commuting")
    if flavor not in (f.value for f in Flavor):
        raise ConfigError(f"unknown flavor {flavor!r}")
    var_data = data.get("vars")
    if not isinstance(var_data, list) or not var_data:
        raise ConfigError("'vars' must be a non-empty list")
    variables = []
    for entry in var_data:
        if not isinstance(entry, dict):
            raise ConfigError(f"variable entry must be an object: {entry!r}")
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
            raise ConfigError(f"bad variable name {name!r}")
        if name in _RESERVED[domain.name]:
            raise ConfigError(
                f"variable name {name!r} collides with a scalar literal"
            )
        variables.append((name, aut, der))
    try:
        return OreRing(domain, variables, Flavor(flavor),
                       samples=samples, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_ring(path, *, samples: int = DEFAULT_SAMPLES,
              seed: int = DEFAULT_SEED) -> OreRing:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read ring configuration: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"ring configuration is not valid JSON: {exc}") from None
    return ring_from_data(data, samples=samples, seed=seed)


def ring_to_data(ring: OreRing) -> dict:
    return {
        "ring": ring.domain.name,
        "flavor": ring.flavor.value,
        "vars": [
            {"name": v.name, "aut": v.aut.to_data(), "der": v.der.to_data()}
            for v in ring.variables
        ],
    }
