"""Configuration records for tolerances, relation thresholds, and event extraction.

All numeric tolerances used anywhere in the pipeline live here, so a single
record can be loaded from a config file, overridden by CLI flags, and passed
down unchanged.  Units are meters and frames; the vertical axis is y.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace


@dataclass(frozen=True)
class GeometryConfig:
    """The contact tolerance: touch depth and gap, the boundary band of the
    relation patterns, and the padding of flat clouds' fallback boxes."""

    eps_touch: float = 5e-3   # surface proximity / allowed shallow overlap for touch

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            if value < 0:
                raise ValueError(f"{f.name} must be >= 0")


@dataclass(frozen=True)
class RelationConfig:
    """Thresholds for static and dynamic spatial relation classification."""

    theta_near: float = 0.15    # max gap (m) for the Around relation
    delta_move: float = 2e-3    # min mean displacement (m/frame) to count as moving
    delta_rel: float = 1e-3     # relative-distance drift threshold (m/frame)
    window: int = 10            # evaluation window (frames)
    distinguish_in_su: bool = True  # upgrade snug containment to In/Su

    def __post_init__(self):
        for value in (self.theta_near, self.delta_move, self.delta_rel):
            # a NaN fails every comparison: ask for the finite range
            if not 0 < value < math.inf:
                raise ValueError("relation thresholds must be finite and strictly positive")
        if self.window < 2:
            raise ValueError("window must be >= 2")


@dataclass(frozen=True)
class EventConfig:
    """Debouncing and grasp-inference parameters for event extraction."""

    debounce: int = 3           # consecutive frames before a touch edge flips state
    grasp_min_frames: int = 10  # minimum contact age before a grasp can be inferred

    def __post_init__(self):
        if self.debounce < 1 or self.grasp_min_frames < 1:
            raise ValueError("event parameters must be >= 1")


@dataclass(frozen=True)
class RunConfig:
    """Bundle of all knobs plus CLI-level resource paths."""

    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    relation: RelationConfig = field(default_factory=RelationConfig)
    event: EventConfig = field(default_factory=EventConfig)
    library_path: str | None = None
    template_path: str | None = None

    def with_overrides(self, **kv) -> "RunConfig":
        """Apply flat key overrides such as eps_touch=0.01 or window=6."""
        geo, rel, ev = self.geometry, self.relation, self.event
        top = {}
        for key, value in kv.items():
            if value is None:
                continue
            if key in _GEO_KEYS:
                geo = replace(geo, **{key: _cast(key, float, value)})
            elif key in _REL_KEYS:
                if key == "window":
                    cast = int
                elif key == "distinguish_in_su":
                    cast = _flag
                else:
                    cast = float
                rel = replace(rel, **{key: _cast(key, cast, value)})
            elif key in _EVT_KEYS:
                ev = replace(ev, **{key: _cast(key, int, value)})
            elif key in ("library_path", "template_path"):
                top[key] = str(value)
            else:
                raise KeyError(f"unknown config key: {key}")
        return replace(self, geometry=geo, relation=rel, event=ev, **top)


def _cast(key: str, cast, value):
    """``cast(value)``, with a failure naming the key it was meant for."""
    try:
        return cast(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


_FLAG_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _flag(value) -> bool:
    word = str(value).strip().lower()
    if word not in _FLAG_WORDS:
        raise ValueError(f"expected one of {'/'.join(_FLAG_WORDS)}, got {value!r}")
    return _FLAG_WORDS[word]


_GEO_KEYS = {f.name for f in fields(GeometryConfig)}
_REL_KEYS = {f.name for f in fields(RelationConfig)}
_EVT_KEYS = {f.name for f in fields(EventConfig)}

CONFIG_ENV_VAR = "MANIPSEM_CONFIG"


def split_lines(text: str):
    """The lines of ``text``, split at "\\n" only, one at a time: the line
    splitting of every text format the package reads (traces, config,
    templates, the action library).

    ``str.splitlines`` also splits at U+2028, U+2029 and \\x85, which a
    value or a JSON string may hold raw, and at \\x0b, \\x0c and
    \\x1c-\\x1e; and it copies the whole text into a list.  A "\\r"
    before the "\\n" is left to the caller, which strips it with the
    line's other outer whitespace.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def read_text(source) -> str:
    """The text of a path, or of a text or byte stream, its bytes decoded as
    UTF-8: the reader of trace, config, template and library files.  A path is
    read as bytes, so a lone "\\r" stays in its line as it would from a
    stream; text mode would turn it into a line break."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    return data.decode("utf-8") if isinstance(data, bytes) else data


def parse_config_text(text: str) -> dict:
    """Parse the ``key = value`` config format. '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_run_config(path: str | None = None) -> RunConfig:
    """Build a RunConfig from a config file, the env fallback, or defaults."""
    cfg = RunConfig()
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        cfg = cfg.with_overrides(**parse_config_text(read_text(path)))
    return cfg
