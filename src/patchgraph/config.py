"""Flat key=value run configuration.

One diff-able text format drives every CLI command: ``key = value`` lines,
``#`` comments, blank lines ignored.  Every key has a typed default below;
unknown keys and out-of-range values are rejected with *all* problems
listed at once, not just the first.
"""

import hashlib
import math

# key -> (default, type, validator description, predicate)
_POSITIVE = ("must be > 0", lambda v: v > 0)
_NON_NEGATIVE = ("must be >= 0", lambda v: v >= 0)
_UNIT = ("must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_ANY = ("", lambda v: True)


def _one_of(*choices):
    return ("is not one of " + "/".join(choices), lambda v: v in choices)


SCHEMA = {
    "model.n":            (32, int, _POSITIVE),
    "model.k":            (5, int, _POSITIVE),
    "model.arch":         ("gat", str, _one_of("gcn", "gat", "sage")),
    "model.heads":        (4, int, _POSITIVE),
    "model.featurizer":   ("fixed_hist", str, _one_of("fixed_hist", "tiny_conv")),
    "model.pool":         ("mean", str, _one_of("mean", "max")),
    "model.gamma":        (0.5, float, _UNIT),

    "train.lr":           (1e-4, float, _NON_NEGATIVE),
    "train.epochs":       (150, int, _POSITIVE),
    "train.batch":        (16, int, _POSITIVE),
    "train.balance":      (True, bool, _ANY),

    "synth.scenes":       (10, int, _POSITIVE),
    "synth.lights":       (2, int, _NON_NEGATIVE),
    "synth.signs":        (2, int, _NON_NEGATIVE),
    "synth.poles":        (3, int, _NON_NEGATIVE),
    "synth.windows":      (2, int, _NON_NEGATIVE),
    "synth.sigma_loc":    (0.2, float, _NON_NEGATIVE),
    "synth.occlusion":    (0.1, float, _UNIT),
    "synth.sigma_pixel":  (8.0, float, _NON_NEGATIVE),
    # synth patches carry landmark ids, which override the distance rule,
    # so tau_match changes only synth_report's label_disagreements
    "synth.tau_match":    (1.0, float, _POSITIVE),
    "synth.camera_gap":   (4.0, float, _POSITIVE),
    "synth.scene_spacing": (200.0, float, _POSITIVE),
    "synth.max_pairs":    (60, int, _POSITIVE),

    "place.dustbin":      (0.2, float, _ANY),
    "place.tau":          (0.1, float, _POSITIVE),
    "place.iters":        (100, int, _POSITIVE),
    "place.tune":         (True, bool, _ANY),
    "place.gamma_f":      (0.5, float, _UNIT),
    "place.radius":       (10.0, float, _POSITIVE),

    "stereo.gamma":       (0.9, float, _UNIT),
    "stereo.baseline":    (0.5, float, _POSITIVE),
    "stereo.depth_min":   (5.0, float, _POSITIVE),
    "stereo.depth_max":   (20.0, float, _POSITIVE),
    "stereo.landmarks":   (8, int, _POSITIVE),
    "stereo.oracle_match": (False, bool, _ANY),

    "theory.kl_models":   (100, int, _POSITIVE),
    "theory.scaling_models": (20, int, _POSITIVE),
    "theory.tv_models":   (100, int, _POSITIVE),
}


class ConfigError(ValueError):
    """Carries every validation problem found, one per line."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" +
                         "\n".join("  - " + p for p in self.problems))


def default_config():
    return {k: spec[0] for k, spec in SCHEMA.items()}


def check_value(key, value):
    """The problem with ``value`` for ``key``, or None.  A number must not
    be a bool, and a float key takes an int or a finite float."""
    _, typ, (desc, pred) = SCHEMA[key]
    kinds = (int, float) if typ is float else typ
    if not isinstance(value, kinds) or (typ is not bool
                                        and isinstance(value, bool)):
        return "%s: expected %s, got %r" % (key, typ.__name__, value)
    if typ is float and not math.isfinite(value):
        return "%s: %r is not finite" % (key, value)
    if not pred(value):
        return "%s: %r %s" % (key, value, desc)
    return None


def model_problems(cfg):
    """Every problem with the ``model.*`` entries of ``cfg``, including gat
    heads that do not divide n."""
    problems = [p for p in (check_value(key, cfg[key]) for key in SCHEMA
                            if key.startswith("model.")) if p]
    if (not problems and cfg["model.arch"] == "gat"
            and cfg["model.n"] % cfg["model.heads"]):
        problems.append("model.heads: must divide model.n for the gat "
                        "architecture")
    return problems


def _parse_value(key, raw, problems):
    typ = SCHEMA[key][1]
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                value = True
            elif low in ("false", "no", "0", "off"):
                value = False
            else:
                raise ValueError
        else:
            value = typ(raw)
    except ValueError:
        problems.append("%s: cannot parse %r as %s" % (key, raw, typ.__name__))
        return None
    problem = check_value(key, value)
    if problem:
        problems.append(problem)
        return None
    return value


def _apply(cfg, items, problems):
    for key, raw in items:
        if key not in SCHEMA:
            problems.append("%s: unknown key" % key)
            continue
        value = _parse_value(key, raw, problems)
        if value is not None:
            cfg[key] = value


def load_config(path=None, overrides=()):
    """Defaults, then the config file, then ``key=value`` overrides.
    Raises ConfigError listing every offending key."""
    cfg = default_config()
    problems = []
    if path is not None:
        items = []
        try:
            with open(path) as fh:
                for ln, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        problems.append("line %d: expected key = value, got %r"
                                        % (ln, line))
                        continue
                    key, raw = line.split("=", 1)
                    items.append((key.strip(), raw))
        except OSError as exc:
            raise ConfigError(["cannot read config file: %s" % exc])
        _apply(cfg, items, problems)
    override_items = []
    for ov in overrides:
        if "=" not in ov:
            problems.append("override %r: expected key=value" % ov)
            continue
        key, raw = ov.split("=", 1)
        override_items.append((key.strip(), raw))
    _apply(cfg, override_items, problems)
    if cfg["stereo.depth_min"] >= cfg["stereo.depth_max"]:
        problems.append("stereo.depth_min: must be < stereo.depth_max")
    problems.extend(model_problems(cfg))
    if problems:
        raise ConfigError(problems)
    return cfg


def config_hash(cfg):
    """Short stable digest of the effective configuration."""
    text = "\n".join("%s=%r" % (k, cfg[k]) for k in sorted(cfg))
    return hashlib.sha256(text.encode("utf8")).hexdigest()[:16]
