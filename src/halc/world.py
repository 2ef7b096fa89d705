"""Deterministic synthetic stand-ins for the model, detector, tagger and scorer.

A Scene couples a vocabulary with per-token likelihood profiles over the FOV
space and a sentence skeleton that makes decoded captions syntactically
plausible. Scenes are constructed so that the qualitative FOV phenomena the
decoder exploits (stable, shifting, noisy and peaking token profiles) hold by
design, and so that hallucination traps are correctable through FOV search.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from operator import itemgetter
from typing import Annotated, Callable, ClassVar, Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .geometry import Fov, ImageSpec, clamp_to_image
from .schema import check_types, read, write

__all__ = [
    "StableHigh",
    "Peaking",
    "ContextShift",
    "Noisy",
    "SceneObject",
    "TrapInfo",
    "WordSlot",
    "NounSlot",
    "VerbSlot",
    "Scene",
    "CorpusSpec",
    "END_TOKEN",
    "IDK_TOKEN",
    "tag_token",
    "toy_model_logits",
    "toy_detector",
    "DetectorSim",
    "oracle_match_score",
    "noisy_match_score",
    "random_match_score",
    "constant_match_score",
    "demo_scene",
    "generate_corpus",
    "save_corpus",
    "load_corpus",
]

END_TOKEN = "[END]"
IDK_TOKEN = "[IDK]"

SLOT_BONUS = 8.0
FILLER_LEVEL = 4.0
FUNCTION_LEVEL = 3.0
VERB_LEVEL = 3.0
END_LEVEL = 2.0
IDK_LEVEL = -30.0

_PREPOSITIONS = frozenset({"on", "in", "under", "near", "beside", "above"})
_FUNCTION_WORDS = ("a", "the", ".")  # the articles and the full stop

_M64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return (z ^ (z >> 31)) & _M64


def hash_noise(seed: int, *values: int) -> float:
    """Stable 64-bit mix of integers mapped to [-1, 1]."""
    state = _mix64(seed & _M64)
    for v in values:
        state = _mix64(state ^ (int(v) & _M64))
    return (state >> 11) / float(1 << 53) * 2.0 - 1.0


# ---------------------------------------------------------------------------
# Token likelihood profiles (the four qualitative FOV patterns)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableHigh:
    """Constant likelihood regardless of visual context."""

    kind: ClassVar[str] = "stable_high"
    label: ClassVar[str] = "stable_high profile"
    level: float


@dataclass(frozen=True)
class Peaking:
    """Gaussian bump around an optimal window; the victim-token pattern."""

    kind: ClassVar[str] = "peaking"
    label: ClassVar[str] = "peaking profile"
    v_star: Fov
    width: float
    amp: float
    base: float

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise InvalidParameterError("peak width must be positive")
        if self.amp < 0:
            raise InvalidParameterError("peak amplitude must be nonnegative")


@dataclass(frozen=True)
class ContextShift:
    """Likelihood drifting with the log area fraction of the window."""

    kind: ClassVar[str] = "context_shift"
    label: ClassVar[str] = "context_shift profile"
    slope: float
    base: float


@dataclass(frozen=True)
class Noisy:
    """Seeded bounded noise over quantized windows."""

    kind: ClassVar[str] = "noisy"
    label: ClassVar[str] = "noisy profile"
    amp: float
    noise_seed: int
    base: float

    def __post_init__(self) -> None:
        if self.amp < 0:
            raise InvalidParameterError("noise amplitude must be nonnegative")


TokenProfile = StableHigh | Peaking | ContextShift | Noisy


def profile_value(profile: TokenProfile, fov: Fov, image: ImageSpec) -> float:
    """The likelihood a profile gives a token under one window.

    Peaking takes the math.dist of the two windows' (width, height,
    center_x, center_y) tuples, built in place.
    """
    if isinstance(profile, StableHigh):
        return profile.level
    if isinstance(profile, Peaking):
        v = profile.v_star
        d = math.dist(
            (fov.width, fov.height, fov.center_x, fov.center_y),
            (v.width, v.height, v.center_x, v.center_y),
        )
        return profile.base + profile.amp * math.exp(-(d * d) / (2.0 * profile.width**2))
    if isinstance(profile, ContextShift):
        try:
            return profile.base + profile.slope * math.log(fov.area / image.area)
        except ValueError:  # the ratio underflows to 0
            raise InvalidParameterError(
                f"window area {fov.area!r} over image area {image.area!r} underflows to 0"
            ) from None
    if isinstance(profile, Noisy):
        q = (round(fov.width), round(fov.height), round(fov.center_x), round(fov.center_y))
        return profile.base + profile.amp * hash_noise(profile.noise_seed, *q)
    raise InvalidInputError(f"unknown profile type: {type(profile)!r}")


# ---------------------------------------------------------------------------
# Scene structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneObject:
    label: ClassVar[str] = "object"
    name: str
    region: Fov
    profile: TokenProfile
    is_ground_truth: bool = field(default=True, metadata={"key": "ground_truth"})
    anchor: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.is_ground_truth and not self.anchor:
            raise InvalidParameterError(
                f"hallucinated object {self.name!r} must name an anchor"
            )


@dataclass(frozen=True)
class TrapInfo:
    """Bookkeeping for a constructed victim/hallucination pair."""

    label: ClassVar[str] = "trap"
    victim: str
    trap: str
    position: int
    correctable: bool


@dataclass(frozen=True)
class WordSlot:
    kind: ClassVar[str] = "word"
    label: ClassVar[str] = "word slot"
    token: str


@dataclass(frozen=True)
class NounSlot:
    kind: ClassVar[str] = "noun"
    label: ClassVar[str] = "noun slot"
    candidates: tuple[str, ...]


@dataclass(frozen=True)
class VerbSlot:
    kind: ClassVar[str] = "verb"
    label: ClassVar[str] = "verb slot"
    candidates: tuple[str, ...]


Slot = WordSlot | NounSlot | VerbSlot


@dataclass(frozen=True, eq=False)
class Scene:
    """Immutable synthetic scene: image, objects, grammar and vocabulary."""

    label: ClassVar[str] = "scene"
    image: ImageSpec
    objects: tuple[SceneObject, ...]
    verbs: tuple[str, ...]
    fillers: tuple[str, ...]
    skeleton: tuple[Slot, ...]
    cooccurrence: Mapping[tuple[str, str], Annotated[float, "bonus"]]
    reference_caption: tuple[str, ...] = field(metadata={"key": "reference"})
    scene_id: str = field(default="scene", metadata={"key": "id"})
    trap: Optional[TrapInfo] = None
    vocabulary: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.vocabulary:
            object.__setattr__(self, "vocabulary", self._assemble_vocabulary())
        by_name = {o.name: o for o in self.objects}  # the last object of a name wins
        gt = frozenset(o.name for o in self.objects if o.is_ground_truth)
        allowed = [(s.token,) if isinstance(s, WordSlot) else s.candidates for s in self.skeleton]
        allowed.append((END_TOKEN,))  # the end-of-sequence slot
        named = {tok for toks in allowed for tok in toks}.union(by_name, *self.cooccurrence)
        classed = named.union(self.verbs, _FUNCTION_WORDS, _PREPOSITIONS, (IDK_TOKEN,))
        index, fillers = _split_index(self.vocabulary, self.fillers, classed)
        if len(index) + len(fillers) != len(self.vocabulary):
            raise InvalidParameterError("vocabulary contains duplicates")
        for tok in self.reference_caption:
            if tok in by_name and tok not in gt:
                raise InvalidParameterError("reference caption uses a non-ground-truth object")
        missing = sorted(named.difference(index))
        if missing:
            raise InvalidParameterError(f"scene tokens {missing} missing from vocabulary")
        # Row p is the bonus of the slot at caption position p; _cooc maps a
        # previous token to its co-occurrence bonus. Both span only the
        # vocabulary head, the ids up to the last named token: a generated
        # scene's fillers come after it, so a row is about 32 wide, not V.
        head = 1 + max(map(index.__getitem__, named))
        slots = np.zeros((len(allowed), head), dtype=float)
        for p, toks in enumerate(allowed):
            for tok in toks:
                slots[p, index[tok]] = SLOT_BONUS
        cooc: dict[str, np.ndarray] = {}
        for (prev, tok), bonus in self.cooccurrence.items():
            if prev not in cooc:
                cooc[prev] = np.zeros(head, dtype=float)
            cooc[prev][index[tok]] += bonus
        levels, lexicon, varying = _token_tables(index, len(self.vocabulary), self.verbs, by_name)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_fillers", fillers)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_ground_truth", gt)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_varying", varying)
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_cooc", cooc)
        object.__setattr__(self, "_lexicon", lexicon)

    def _assemble_vocabulary(self) -> tuple[str, ...]:
        words = (END_TOKEN, IDK_TOKEN, "a", "the", ".", "on", *self.verbs,
                 *(obj.name for obj in self.objects), *self.fillers)
        return tuple(dict.fromkeys(words))

    # -- token bookkeeping ---------------------------------------------------

    def token_id(self, token: str) -> int:
        i = self._index.get(token)
        if i is not None:
            return i
        if token in self._fillers:
            return len(self._index) + self._fillers[token]
        raise InvalidInputError(f"token {token!r} not in scene vocabulary")

    @property
    def ground_truth_names(self) -> frozenset[str]:
        return self._ground_truth

    @property
    def lexicon(self) -> dict[str, str]:
        """POS map of this scene's tagged tokens; any other token is "other"."""
        return self._lexicon

    def find_object(self, name: str) -> Optional[SceneObject]:
        return self._by_name.get(name)


@functools.lru_cache(maxsize=1)
def _filler_index(fillers: tuple[str, ...]) -> dict[str, int]:
    """Each filler's position in `fillers`. Every scene of a generated or
    loaded corpus holds an equal fillers tuple, so they share this one dict,
    which nothing writes to."""
    return dict(zip(fillers, range(len(fillers))))


def _split_index(
    vocabulary: tuple[str, ...], fillers: tuple[str, ...], classed: set[str]
) -> tuple[dict[str, int], dict[str, int]]:
    """A vocabulary's index as its head's own ids and the shared filler
    index, where filler f has id len(head) + shared[f]. The split is taken
    when the vocabulary ends with `fillers` and no head or `classed` token
    (one the scene names or gives a class) is a filler; a repeated filler
    leaves the two indexes short of the vocabulary's length. Otherwise the
    head is the whole vocabulary and the filler index is empty."""
    n = len(vocabulary) - len(fillers)
    if vocabulary[n:] == fillers:
        head, shared = vocabulary[:n], _filler_index(fillers)
        if shared.keys().isdisjoint([*head, *classed]):
            return dict(zip(head, range(n))), shared
    return dict(zip(vocabulary, range(len(vocabulary)))), {}


def _token_tables(
    index: Mapping[str, int],
    size: int,
    verbs: Sequence[str],
    by_name: Mapping[str, SceneObject],
) -> tuple[np.ndarray, dict[str, str], tuple[tuple[int, TokenProfile], ...]]:
    """A scene's logits that no window changes (`size` wide), its POS
    lexicon of tagged tokens, and the (token id, profile) pairs of its
    window-dependent object tokens. `index` holds every classed token, and
    any other token is a filler. A token in several classes takes the last
    class's level and tag. StableHigh object levels are constants, so they
    are written once here."""
    levels = np.full(size, FILLER_LEVEL)
    lexicon: dict[str, str] = {}
    for tokens, level, pos in (
        (_FUNCTION_WORDS, FUNCTION_LEVEL, None),
        (_PREPOSITIONS, FUNCTION_LEVEL, "preposition"),
        (verbs, VERB_LEVEL, "verb"),
        (by_name, 0.0, "noun"),  # set below or per window
        ((IDK_TOKEN,), IDK_LEVEL, None),
        ((END_TOKEN,), END_LEVEL, None),
    ):
        present = [tok for tok in tokens if tok in index]
        levels[[index[tok] for tok in present]] = level
        if pos:
            lexicon.update(dict.fromkeys(present, pos))
    varying = []
    for name, obj in by_name.items():
        if isinstance(obj.profile, StableHigh):
            levels[index[name]] = obj.profile.level
        else:
            varying.append((index[name], obj.profile))
    return levels, lexicon, tuple(varying)


# The hallucination category of a POS tag; any other tag has none.
_CATEGORIES = {
    "noun": "existence",
    **dict.fromkeys(("adjective", "adverb", "number", "verb", "pronoun"), "attribute"),
    "preposition": "relationship",
}


def tag_token(lexicon: Mapping[str, str], word: str) -> str:
    """Map a word to its hallucination category via its POS tag."""
    return _CATEGORIES.get(lexicon.get(word, "other"), "none")


# ---------------------------------------------------------------------------
# The conditional token model
# ---------------------------------------------------------------------------


def toy_model_logits(
    scene: Scene,
    fov: Fov,
    prefix: Optional[Sequence[str]],
) -> np.ndarray:
    """Token logits conditioned on a visual context window and a text prefix.

    With prefix=None the model returns bare visual conditioning: pure profile
    values with no grammar or co-occurrence terms. With a (possibly empty)
    prefix, the sentence-skeleton slot for the next position and the
    co-occurrence bonus of the last prefix token are added.
    """
    logits = scene._levels.copy()
    for i, profile in scene._varying:
        logits[i] = profile_value(profile, fov, scene.image)
    if prefix is None:
        return logits
    # One C-level lookup of every token passes a valid prefix; only a failing
    # one is scanned, so that the message names its first bad token.
    try:
        if prefix:
            itemgetter(*prefix)(scene._index)
    except KeyError:  # a filler, or a token of no vocabulary
        for tok in prefix:
            if tok not in scene._index and tok not in scene._fillers:
                raise InvalidInputError(f"prefix token {tok!r} not in vocabulary") from None
    # The bonuses are added to the head's view only. Past it each logit is a
    # nonzero token-class level, which adding 0.0 would leave as it is.
    head = logits[: scene._slots.shape[1]]
    head += scene._slots[min(len(prefix), len(scene.skeleton))]
    if prefix and prefix[-1] in scene._cooc:
        head += scene._cooc[prefix[-1]]
    return logits


# ---------------------------------------------------------------------------
# Detector simulator
# ---------------------------------------------------------------------------


def toy_detector(
    token: str,
    scene: Scene,
    eta: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    confidence_threshold: float = 0.3,
) -> Optional[Fov]:
    """Grounding box for a token, or None when nothing can be located.

    Ground-truth objects are located at their region; hallucinated tokens
    with an anchor snap to the anchor object's region. Both are offset by
    eta, so the default box is exact.
    """
    obj = scene.find_object(token)
    if obj is None:
        return None
    confidence = 0.9 if obj.is_ground_truth else 0.5
    if confidence < confidence_threshold:
        return None
    region = obj.region
    if not obj.is_ground_truth:
        anchor = scene.find_object(obj.anchor)
        if anchor is None:
            return None
        region = anchor.region
    w = max(region.width + eta[0], 1e-6)
    h = max(region.height + eta[1], 1e-6)
    box = Fov(w, h, region.center_x + eta[2], region.center_y + eta[3])
    return clamp_to_image(box, scene.image)


class DetectorSim:
    """Detector with a fixed perturbation, usable as a (token, scene) callable."""

    def __init__(
        self,
        eta: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
        confidence_threshold: float = 0.3,
    ) -> None:
        self.eta = eta
        self.confidence_threshold = confidence_threshold

    def __call__(self, token: str, scene: Scene) -> Optional[Fov]:
        return toy_detector(token, scene, self.eta, self.confidence_threshold)


# ---------------------------------------------------------------------------
# Matching scorers
# ---------------------------------------------------------------------------

Scorer = Callable[[Sequence[str], Scene], float]
"""Text/image matching score of a token sequence against a scene.

A scorer must be a pure function of (sequence, scene): the same arguments
always give the same score. Beam selection relies on this to score each
distinct candidate sequence once. Every scorer below, including the seeded
noisy and random ones, keys its output on the sequence and scene alone.
"""


def oracle_match_score(sequence: Sequence[str], scene: Scene) -> float:
    """Ground-truth text/image agreement over the sequence's noun tokens.

    Matched minus hallucinated mentions over all mentions, rescaled from
    [-1, 1] to [0, 1]. A sequence with no nouns scores a neutral 0.5.

    The tokens the lexicon tags as nouns are exactly the scene's object
    names, and the ground-truth names are among them, so the nouns are the
    tokens found in the scene's name table, and the matched mentions those
    of its nouns found among the ground-truth names: two filters run in C.
    """
    mentions = list(filter(scene._by_name.__contains__, sequence))
    if not mentions:
        return 0.5
    nouns = len(mentions)
    matched = len(list(filter(scene._ground_truth.__contains__, mentions)))
    raw = (matched - (nouns - matched)) / nouns
    return (raw + 1.0) / 2.0


def noisy_match_score(noise_amp: float, seed: int) -> Scorer:
    """The oracle score with seeded bounded noise, clipped to [0, 1]."""
    if noise_amp < 0:
        raise InvalidParameterError("noise amplitude must be nonnegative")

    def scorer(sequence: Sequence[str], scene: Scene) -> float:
        value = oracle_match_score(sequence, scene)
        noise = noise_amp * hash_noise(seed, *"\x1f".join(sequence).encode("utf-8"))
        return min(1.0, max(0.0, value + noise))

    return scorer


def random_match_score(seed: int) -> Scorer:
    """Content-blind scorer: a seeded uniform draw per sequence."""

    def scorer(sequence: Sequence[str], scene: Scene) -> float:
        return (hash_noise(seed, *"\x1f".join(sequence).encode("utf-8")) + 1.0) / 2.0

    return scorer


def constant_match_score() -> Scorer:
    """Content-blind scorer that rates every sequence 0.5."""

    def scorer(sequence: Sequence[str], scene: Scene) -> float:
        return 0.5

    return scorer


# ---------------------------------------------------------------------------
# Canonical demo scene (man holding a clock on the beach)
# ---------------------------------------------------------------------------

DEMO_DETECTOR_ETA = (30.0, 30.0, 20.0, -15.0)


def demo_scene() -> Scene:
    """Fixture scene where greedy decoding hallucinates and HALC corrects.

    The clock is the victim token with a peaking profile; the surfboard is
    the hallucination whose detector box snaps onto the clock; the book is a
    noisy decoy. Greedy full-image decoding emits "surfboard" at the object
    slot while windows near the clock's optimal context flip it to "clock".
    """
    image = ImageSpec(1000.0, 1000.0)
    clock_region = Fov(120.0, 120.0, 640.0, 300.0)
    man_region = Fov(260.0, 580.0, 330.0, 560.0)
    objects = (
        SceneObject("man", man_region, StableHigh(6.0)),
        SceneObject("beach", Fov(1000.0, 420.0, 500.0, 790.0), StableHigh(6.2)),
        SceneObject(
            "clock",
            clock_region,
            # The optimal window sits well outside the detector box, so direct
            # decoding from the grounding alone does not recover the victim.
            Peaking(v_star=Fov(300.0, 300.0, 640.0, 300.0), width=70.0, amp=5.0, base=2.0),
        ),
        SceneObject(
            "surfboard",
            clock_region,
            ContextShift(slope=0.8, base=5.2),
            is_ground_truth=False,
            anchor="clock",
        ),
        SceneObject(
            "book",
            man_region,
            Noisy(amp=0.8, noise_seed=7, base=1.5),
            is_ground_truth=False,
            anchor="man",
        ),
    )
    skeleton = (
        WordSlot("a"),
        NounSlot(("man",)),
        VerbSlot(("holds",)),
        WordSlot("a"),
        NounSlot(("clock", "surfboard", "book")),
        WordSlot("on"),
        WordSlot("the"),
        NounSlot(("beach",)),
        WordSlot("."),
    )
    return Scene(
        image=image,
        objects=objects,
        verbs=("holds",),
        fillers=tuple(f"w{i:02d}" for i in range(64)),
        skeleton=skeleton,
        cooccurrence={("a", "surfboard"): 0.3},
        reference_caption=("a", "man", "holds", "a", "clock", "on", "the", "beach", "."),
        scene_id="demo",
        trap=TrapInfo(victim="clock", trap="surfboard", position=4, correctable=True),
    )


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


# The largest generated corpus, 50 times oracle-study's 200-scene default.
# Building it peaks at about 470 MB of RSS (measured in a fresh process).
MAX_SCENE_COUNT = 10_000
# The bound on count x (noun_pool + filler_count): a built scene holds one
# V-wide table (levels) and scans the noun pool; its fillers' index is
# shared. At the bound, 62 scenes x 32,258 words peak at about 73 MB of
# RSS (in a fresh process). It admits 10,000 default scenes (x 120) and
# the wide-vocab benchmark's 30 x 4024.
MAX_CORPUS_WORDS = 2_000_000


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of a generated scene corpus, or the path of a saved one."""

    scene_count: int = field(default=100, metadata={"key": "count"})
    trap_fraction: float = 0.5
    correctable_fraction: float = 1.0
    clauses: int = 7
    noun_pool: int = 24
    filler_count: int = 96
    image_width: float = 1000.0
    image_height: float = 1000.0
    # Clause indices eligible for trap placement, cycled in a 1:2:3 ratio so
    # hallucinations concentrate late in the caption.
    trap_clauses: tuple[int, ...] = (1, 3, 6)
    # A corpus file written by save_corpus, loaded in place of generating,
    # so no other key may leave its default.
    path: Optional[str] = None

    def __post_init__(self) -> None:
        require = check_types(self, "corpus")
        count_ok = 1 <= self.scene_count <= MAX_SCENE_COUNT
        require("count", count_ok, f"must lie in [1, {MAX_SCENE_COUNT}]")
        require("trap_fraction", 0 <= self.trap_fraction <= 1, "must lie in [0, 1]")
        require("correctable_fraction", 0 <= self.correctable_fraction <= 1, "must lie in [0, 1]")
        require("clauses", self.clauses >= 1, "must be at least 1")
        need = 3 * self.clauses + 1
        require("noun_pool", self.noun_pool >= need, "must be at least 3 * clauses + 1")
        require("filler_count", self.filler_count >= 0, "must be nonnegative")
        words = self.noun_pool + self.filler_count
        if self.scene_count * words > MAX_CORPUS_WORDS:
            raise InvalidParameterError(
                f"corpus count x (noun_pool + filler_count) must be at most {MAX_CORPUS_WORDS}, "
                f"got {self.scene_count} x {words}"
            )
        require("image_width", self.image_width > 0, "must be positive")
        require("image_height", self.image_height > 0, "must be positive")
        # ContextShift profiles divide window areas by the image area.
        if not 0 < self.image_width * self.image_height < math.inf:
            raise InvalidParameterError(
                "corpus image_width x image_height must be a finite positive area, "
                f"got {self.image_width!r} x {self.image_height!r}"
            )
        # Untrapped scenes read a trap clause too, but never index with it.
        clauses = self.trap_clauses
        ok = clauses and (self.trap_fraction == 0 or all(0 <= c < self.clauses for c in clauses))
        require("trap_clauses", bool(ok), "must be nonempty clause indices in [0, clauses)")
        for f in fields(self) if self.path is not None else ():
            given = f.name != "path" and getattr(self, f.name) != f.default
            require(f.metadata.get("key", f.name), not given, "cannot be given with path")


_VERB_POOL = ("holds", "sees", "keeps", "shows")

VICTIM_BASE = 2.5
VICTIM_AMP = 5.0
VICTIM_WIDTH = 180.0
TRAP_BASE = 4.2
TRAP_SLOPE = 0.5
CORPUS_DETECTOR_ETA = (12.0, -9.0, 7.0, 5.0)

# Cycled over trap scenes in order; late tiers come first so that partial
# cycles always over-fill the latest clause, keeping the cumulative
# hallucination ratio non-decreasing in the token budget for any trap count.
_TIER_CYCLE = (2, 2, 2, 1, 1, 0)


def _noun_pool(size: int) -> tuple[str, ...]:
    base = (
        "beach", "man", "clock", "surfboard", "book", "dog", "kite", "boat",
        "chair", "tree", "bird", "lamp", "cup", "hat", "ball", "bench",
        "shell", "towel", "phone", "bag", "rock", "flag", "wave", "cloud",
        "crab", "net", "oar", "fence", "sign", "pier", "drum", "rope",
    )
    if size <= len(base):
        return base[:size]
    extra = tuple(f"obj{i:02d}" for i in range(size - len(base)))
    return base + extra


def _random_region(rng: np.random.Generator, image: ImageSpec) -> Fov:
    # rng.uniform(low, high) is low + (high - low) * rng.random(), so one
    # block of 4 doubles gives the four scalar draws bit for bit.
    u = rng.random(4).tolist()
    s = 0.15 + (0.3 - 0.15) * u[0]
    w = s * image.width
    h = s * (0.85 + (1.15 - 0.85) * u[1]) * image.height
    cx = w / 2.0 + ((image.width - w / 2.0) - w / 2.0) * u[2]
    cy = h / 2.0 + ((image.height - h / 2.0) - h / 2.0) * u[3]
    return Fov(w, h, cx, cy)


def _victim_v_star(region: Fov, image: ImageSpec) -> Fov:
    return clamp_to_image(
        Fov(region.width * 1.25, region.height * 1.25, region.center_x, region.center_y),
        image,
    )


def generate_corpus(seed: int, count: int, spec: Optional[CorpusSpec] = None) -> list[Scene]:
    """Deterministic scene corpus controlled by a CorpusSpec.

    Exactly round(trap_fraction * count) scenes carry one victim/trap pair,
    and exactly round(correctable_fraction * traps) of those are correctable
    by some visual context window.
    """
    spec = replace(spec or CorpusSpec(), scene_count=count)  # CorpusSpec checks count's caps
    rng = np.random.default_rng(seed)
    image = ImageSpec(spec.image_width, spec.image_height)
    pool = _noun_pool(spec.noun_pool)
    fillers = tuple(f"w{i:03d}" for i in range(spec.filler_count))

    n_traps = round(spec.trap_fraction * count)
    trap_ids = sorted(rng.permutation(count)[:n_traps].tolist())
    n_corr = round(spec.correctable_fraction * n_traps)
    trapped_ids, correctable_ids = set(trap_ids), set(trap_ids[:n_corr])
    tiers = {sid: _TIER_CYCLE[i % len(_TIER_CYCLE)] for i, sid in enumerate(trap_ids)}

    scenes = []
    for idx in range(count):
        scenes.append(
            _build_scene(
                rng=rng,
                image=image,
                pool=pool,
                fillers=fillers,
                spec=spec,
                scene_id=f"scene{idx:04d}",
                trapped=idx in trapped_ids,
                correctable=idx in correctable_ids,
                tier=tiers.get(idx, 0),
            )
        )
    return scenes


def _build_scene(
    rng: np.random.Generator,
    image: ImageSpec,
    pool: tuple[str, ...],
    fillers: tuple[str, ...],
    spec: CorpusSpec,
    scene_id: str,
    trapped: bool,
    correctable: bool,
    tier: int,
) -> Scene:
    need = 3 * spec.clauses
    names = [pool[i] for i in rng.choice(len(pool), size=need, replace=False)]
    trap_token = None
    if trapped:
        remaining = [p for p in pool if p not in names]
        trap_token = remaining[int(rng.integers(len(remaining)))]

    trap_clause = spec.trap_clauses[tier % len(spec.trap_clauses)]
    trap_slot_position = trap_clause * 9 + 4
    victim_name = names[3 * trap_clause + 1] if trapped else None

    objects = []
    for i, name in enumerate(names):
        region = _random_region(rng, image)
        if trapped and name == victim_name:
            amp = VICTIM_AMP if correctable else 0.0
            profile: TokenProfile = Peaking(
                v_star=_victim_v_star(region, image),
                width=VICTIM_WIDTH,
                amp=amp,
                base=VICTIM_BASE,
            )
        else:
            profile = StableHigh(float(rng.uniform(4.0, 6.5)))
        objects.append(SceneObject(name, region, profile))
    if trapped:
        victim_region = next(o.region for o in objects if o.name == victim_name)
        trap_profile: TokenProfile = (
            ContextShift(slope=TRAP_SLOPE, base=TRAP_BASE)
            if correctable
            else StableHigh(TRAP_BASE)
        )
        objects.append(
            SceneObject(
                trap_token,
                victim_region,
                trap_profile,
                is_ground_truth=False,
                anchor=victim_name,
            )
        )

    verbs = tuple(
        _VERB_POOL[int(rng.integers(len(_VERB_POOL)))] for _ in range(spec.clauses)
    )
    skeleton: list[Slot] = []
    reference: list[str] = []
    cooccurrence: dict[tuple[str, str], float] = {}
    for c in range(spec.clauses):
        subj, obj, loc = names[3 * c], names[3 * c + 1], names[3 * c + 2]
        candidates: tuple[str, ...] = (obj,)
        if trapped and c == trap_clause:
            candidates = (obj, trap_token)
        skeleton.extend(
            [
                WordSlot("a"),
                NounSlot((subj,)),
                VerbSlot((verbs[c],)),
                WordSlot("a"),
                NounSlot(candidates),
                WordSlot("on"),
                WordSlot("the"),
                NounSlot((loc,)),
                WordSlot("."),
            ]
        )
        reference.extend(["a", subj, verbs[c], "a", obj, "on", "the", loc, "."])
        cooccurrence[(verbs[c], obj)] = float(rng.uniform(0.05, 0.25))

    trap_info = None
    if trapped:
        trap_info = TrapInfo(
            victim=victim_name,
            trap=trap_token,
            position=trap_slot_position,
            correctable=correctable,
        )
    all_verbs = tuple(dict.fromkeys(verbs))
    return Scene(
        image=image,
        objects=tuple(objects),
        verbs=all_verbs,
        fillers=fillers,
        skeleton=tuple(skeleton),
        cooccurrence=cooccurrence,
        reference_caption=tuple(reference),
        scene_id=scene_id,
        trap=trap_info,
    )


# ---------------------------------------------------------------------------
# Scene serialization (JSON corpus files)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CorpusFile:
    """The document of a corpus file: nonempty, each scene id once."""

    label: ClassVar[str] = "corpus file"
    scenes: tuple[Scene, ...]

    def __post_init__(self) -> None:
        if not self.scenes:
            raise InvalidParameterError("scenes must not be empty")
        repeated = [i for i, n in Counter(s.scene_id for s in self.scenes).items() if n > 1]
        if repeated:
            raise InvalidParameterError(f"scene id {repeated[0]!r} is repeated")


def save_corpus(scenes: Sequence[Scene], path) -> None:
    payload = write(_CorpusFile(tuple(scenes)))  # checked before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_corpus(path) -> list[Scene]:
    """Scenes of a corpus file written by `save_corpus`. Any other file (an
    unknown key, no scene, a repeated scene id) raises InvalidInputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return list(read(_CorpusFile, json.load(fh)).scenes)
        except (TypeError, ValueError) as exc:
            # The package's own errors name the key; a builtin one needs its type.
            own = isinstance(exc, InvalidParameterError)
            detail = str(exc) if own else f"{type(exc).__name__}: {exc}"
            raise InvalidInputError(f"malformed corpus file {path}: {detail}") from exc
