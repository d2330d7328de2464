"""Topic taxonomy — the Jasmine-Directory analogue.

The paper collects websites from the Jasmine Directory, "a web directory
organised in topic based categories", covering 153 topics with two websites
per topic (§IV-A1).  This module defines a deterministic taxonomy of the same
shape: ~20 domain families × ~8 categories ≈ 160 topics.  Each
:class:`Topic` carries:

* a fluent **topic phrase** (the generation target, ~3 tokens on average as
  in the paper),
* an **attribute schema** — four attribute types whose values appear in the
  page (the paper: "the number of attributes in each webpage is four"),
* word pools used by the synthesizer to fill attribute values and
  informative/boilerplate sentences.

The inherent topic↔attribute correlation the paper exploits ("in a book
shopping webpage, author, title and price are more likely to be key
attributes, while in a recruitment webpage, key attributes are more likely to
be job, company and salary") is realised here: the attribute schema is a
function of the domain family.

Categories are drawn from one **shared global pool** with overlap across
families, so a topic is a (family pattern × category) combination.  This
matches the compositional structure implied by the paper's evaluation: a
pre-trained teacher reaches 86% EM on *unseen* topics (Table IV), which is
only possible when unseen topic phrases are built from tokens seen during
training — i.e. unseen topics are unseen *combinations*, not unseen words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = [
    "AttributeType",
    "Topic",
    "DomainFamily",
    "build_taxonomy",
    "FAMILY_SPECS",
    "CATEGORY_POOL",
    "CATEGORIES_PER_FAMILY",
    "family_categories",
    "topic_id_for",
]


@dataclass(frozen=True)
class AttributeType:
    """A key-attribute slot: its name and the pool its values are drawn from."""

    name: str
    value_pool: Tuple[str, ...]
    #: When True the value is a number rendered as digits (becomes ``<digit>``
    #: after preprocessing, mirroring prices/salaries in the paper's data).
    numeric: bool = False


@dataclass(frozen=True)
class Topic:
    """One directory topic: phrase, family and attribute schema."""

    topic_id: int
    family: str
    category: str
    phrase: Tuple[str, ...]
    attributes: Tuple[AttributeType, ...]
    content_pool: Tuple[str, ...]


@dataclass(frozen=True)
class DomainFamily:
    """A family of related topics sharing an attribute schema."""

    name: str
    phrase_pattern: Tuple[str, ...]  # tokens; "{}" is replaced by the category
    attributes: Tuple[AttributeType, ...]
    content_pool: Tuple[str, ...]


# ---------------------------------------------------------------------------
# Word pools
# ---------------------------------------------------------------------------
_PEOPLE = (
    "smith", "johnson", "garcia", "miller", "davis", "martinez", "taylor",
    "anderson", "thomas", "moore", "jackson", "white", "harris", "clark",
)
_COMPANIES = (
    "acme", "globex", "initech", "umbrella", "hooli", "vandelay", "wayne",
    "stark", "wonka", "cyberdyne", "tyrell", "massive", "pied", "aperture",
)
_ADJECTIVES = (
    "modern", "classic", "premium", "essential", "complete", "practical",
    "advanced", "ultimate", "compact", "deluxe", "professional", "vintage",
)
_NOUNS = (
    "guide", "edition", "collection", "series", "handbook", "manual",
    "introduction", "course", "review", "story", "journey", "companion",
)
_CITIES = (
    "melbourne", "sydney", "london", "tokyo", "paris", "berlin", "madrid",
    "chicago", "toronto", "auckland", "dublin", "oslo", "vienna", "lisbon",
)
_AVAILABILITY = ("in stock", "out of stock", "preorder", "limited stock", "ships today")
_CONDITIONS = ("new", "used", "refurbished", "open box")
_LEVELS = ("beginner", "intermediate", "advanced", "expert")
_RATINGS = ("excellent", "good", "average", "outstanding", "superb")
_CUISINES = ("italian", "japanese", "mexican", "thai", "french", "indian", "greek")
_GENRES = ("drama", "comedy", "thriller", "documentary", "romance", "animation")
_BREEDS = ("labrador", "poodle", "beagle", "bulldog", "terrier", "spaniel")
_MATERIALS = ("leather", "cotton", "steel", "oak", "ceramic", "bamboo", "wool")


def _title_pool() -> Tuple[str, ...]:
    return tuple(f"{adj} {noun}" for adj in _ADJECTIVES[:8] for noun in _NOUNS[:8])


_CONTENT_GENERIC = (
    "our team curates every listing with care",
    "customers rate this selection highly",
    "explore the full range in our catalogue",
    "updated information is published every week",
    "detailed specifications are listed below",
    "trusted by thousands of returning visitors",
    "browse related picks from the same section",
    "independent reviews confirm the quality",
)



#: Shared global category pool.  Families overlap on categories so topics are
#: (family pattern x category) combinations and unseen topics remain
#: expressible from seen tokens (see module docstring).
CATEGORY_POOL: Tuple[str, ...] = (
    "books", "shoes", "laptops", "cameras", "watches", "furniture", "toys",
    "bicycles", "gardens", "phones", "tablets", "jackets", "dresses",
    "guitars", "pianos", "paintings", "sculptures", "puzzles", "lamps",
    "carpets", "tents", "kayaks", "skates", "helmets", "backpacks",
    "wallets", "mirrors", "clocks", "vases", "candles",
)

#: Number of categories each family takes from the pool.
CATEGORIES_PER_FAMILY = 8


def family_categories(family_index: int) -> Tuple[str, ...]:
    """Deterministic overlapping slice of the pool for one family.

    Stride 1: adjacent families share 7 of their 8 categories, so a block of
    consecutive families forms a dense (family × category) grid — the
    structure the compositional seen/unseen split relies on.
    """
    pool = CATEGORY_POOL
    return tuple(
        pool[(family_index + j) % len(pool)] for j in range(CATEGORIES_PER_FAMILY)
    )

def topic_id_for(family_index: int, category: str) -> int:
    """Taxonomy id of the (family, category) combination (KeyError if absent)."""
    categories = family_categories(family_index)
    if category not in categories:
        raise KeyError(f"family {family_index} has no category {category!r}")
    return family_index * CATEGORIES_PER_FAMILY + categories.index(category)


# ---------------------------------------------------------------------------
# Family specifications (~20 families x 8 categories = 160 topics)
# ---------------------------------------------------------------------------
FAMILY_SPECS: Tuple[DomainFamily, ...] = (
    DomainFamily(
        name="shopping",
        phrase_pattern=("online", "shopping", "for", "{}"),
        attributes=(
            AttributeType("title", _title_pool()),
            AttributeType("brand", _COMPANIES),
            AttributeType("price", (), numeric=True),
            AttributeType("availability", _AVAILABILITY),
        ),
        content_pool=_CONTENT_GENERIC + ("free shipping applies to most orders", "secure checkout is always available"),
    ),
    DomainFamily(
        name="recruitment",
        phrase_pattern=("job", "listings", "for", "{}"),
        attributes=(
            AttributeType("job title", _title_pool()),
            AttributeType("company", _COMPANIES),
            AttributeType("salary", (), numeric=True),
            AttributeType("location", _CITIES),
        ),
        content_pool=_CONTENT_GENERIC + ("apply directly through the portal", "new openings are posted daily"),
    ),
    DomainFamily(
        name="news",
        phrase_pattern=("news", "coverage", "about", "{}"),
        attributes=(
            AttributeType("headline", _title_pool()),
            AttributeType("author", _PEOPLE),
            AttributeType("date", (), numeric=True),
            AttributeType("section", _GENRES),
        ),
        content_pool=_CONTENT_GENERIC + ("our correspondents report around the clock", "analysis follows the main story"),
    ),
    DomainFamily(
        name="recipes",
        phrase_pattern=("recipes", "for", "{}"),
        attributes=(
            AttributeType("dish", _title_pool()),
            AttributeType("cuisine", _CUISINES),
            AttributeType("cooking time", (), numeric=True),
            AttributeType("difficulty", _LEVELS),
        ),
        content_pool=_CONTENT_GENERIC + ("step by step photos accompany each recipe", "nutritional values are estimates"),
    ),
    DomainFamily(
        name="real-estate",
        phrase_pattern=("property", "listings", "for", "{}"),
        attributes=(
            AttributeType("address", tuple(f"{c} street" for c in _CITIES)),
            AttributeType("agency", _COMPANIES),
            AttributeType("price", (), numeric=True),
            AttributeType("bedrooms", (), numeric=True),
        ),
        content_pool=_CONTENT_GENERIC + ("inspection times are announced weekly", "floor plans are available on request"),
    ),
    DomainFamily(
        name="travel",
        phrase_pattern=("travel", "guides", "for", "{}"),
        attributes=(
            AttributeType("destination", _CITIES),
            AttributeType("season", ("spring", "summer", "autumn", "winter")),
            AttributeType("budget", (), numeric=True),
            AttributeType("rating", _RATINGS),
        ),
        content_pool=_CONTENT_GENERIC + ("local guides share practical advice", "itineraries cover several days"),
    ),
    DomainFamily(
        name="education",
        phrase_pattern=("online", "courses", "in", "{}"),
        attributes=(
            AttributeType("course", _title_pool()),
            AttributeType("instructor", _PEOPLE),
            AttributeType("duration", (), numeric=True),
            AttributeType("level", _LEVELS),
        ),
        content_pool=_CONTENT_GENERIC + ("certificates are issued on completion", "live sessions run twice a week"),
    ),
    DomainFamily(
        name="health",
        phrase_pattern=("health", "services", "in", "{}"),
        attributes=(
            AttributeType("clinic", tuple(f"{c} clinic" for c in _COMPANIES)),
            AttributeType("specialist", _PEOPLE),
            AttributeType("fee", (), numeric=True),
            AttributeType("rating", _RATINGS),
        ),
        content_pool=_CONTENT_GENERIC + ("appointments can be booked online", "patient records remain confidential"),
    ),
    DomainFamily(
        name="automotive",
        phrase_pattern=("dealership", "listings", "for", "{}"),
        attributes=(
            AttributeType("model", _title_pool()),
            AttributeType("maker", _COMPANIES),
            AttributeType("price", (), numeric=True),
            AttributeType("condition", _CONDITIONS),
        ),
        content_pool=_CONTENT_GENERIC + ("test drives are free of charge", "financing options are explained in store"),
    ),
    DomainFamily(
        name="finance",
        phrase_pattern=("financial", "advice", "on", "{}"),
        attributes=(
            AttributeType("product", _title_pool()),
            AttributeType("provider", _COMPANIES),
            AttributeType("rate", (), numeric=True),
            AttributeType("term", (), numeric=True),
        ),
        content_pool=_CONTENT_GENERIC + ("independent advisers review every product", "terms and conditions apply"),
    ),
    DomainFamily(
        name="events",
        phrase_pattern=("event", "tickets", "for", "{}"),
        attributes=(
            AttributeType("event", _title_pool()),
            AttributeType("venue", tuple(f"{c} arena" for c in _CITIES)),
            AttributeType("date", (), numeric=True),
            AttributeType("price", (), numeric=True),
        ),
        content_pool=_CONTENT_GENERIC + ("doors open one hour before the show", "refunds follow the standard policy"),
    ),
    DomainFamily(
        name="software",
        phrase_pattern=("software", "downloads", "for", "{}"),
        attributes=(
            AttributeType("application", _title_pool()),
            AttributeType("developer", _COMPANIES),
            AttributeType("version", (), numeric=True),
            AttributeType("license", ("free", "trial", "commercial", "open source")),
        ),
        content_pool=_CONTENT_GENERIC + ("checksums verify every download", "release notes list the changes"),
    ),
    DomainFamily(
        name="movies",
        phrase_pattern=("movie", "reviews", "of", "{}"),
        attributes=(
            AttributeType("film", _title_pool()),
            AttributeType("director", _PEOPLE),
            AttributeType("year", (), numeric=True),
            AttributeType("rating", _RATINGS),
        ),
        content_pool=_CONTENT_GENERIC + ("spoilers are clearly marked", "critics and audiences often disagree"),
    ),
    DomainFamily(
        name="music",
        phrase_pattern=("music", "albums", "in", "{}"),
        attributes=(
            AttributeType("album", _title_pool()),
            AttributeType("artist", _PEOPLE),
            AttributeType("year", (), numeric=True),
            AttributeType("label", _COMPANIES),
        ),
        content_pool=_CONTENT_GENERIC + ("vinyl editions sell out quickly", "liner notes include full credits"),
    ),
    DomainFamily(
        name="restaurants",
        phrase_pattern=("restaurant", "reviews", "of", "{}"),
        attributes=(
            AttributeType("restaurant", tuple(f"{c} kitchen" for c in _COMPANIES)),
            AttributeType("cuisine", _CUISINES),
            AttributeType("price range", (), numeric=True),
            AttributeType("rating", _RATINGS),
        ),
        content_pool=_CONTENT_GENERIC + ("reservations are recommended on weekends", "menus change with the seasons"),
    ),
    DomainFamily(
        name="pets",
        phrase_pattern=("pet", "care", "for", "{}"),
        attributes=(
            AttributeType("breed", _BREEDS),
            AttributeType("veterinarian", _PEOPLE),
            AttributeType("age", (), numeric=True),
            AttributeType("temperament", ("calm", "playful", "shy", "energetic")),
        ),
        content_pool=_CONTENT_GENERIC + ("adoption events run every month", "vaccination schedules are explained"),
    ),
    DomainFamily(
        name="gardening",
        phrase_pattern=("gardening", "tips", "for", "{}"),
        attributes=(
            AttributeType("plant", _title_pool()),
            AttributeType("season", ("spring", "summer", "autumn", "winter")),
            AttributeType("watering", (), numeric=True),
            AttributeType("sunlight", ("full sun", "partial shade", "full shade")),
        ),
        content_pool=_CONTENT_GENERIC + ("soil preparation matters most", "companion planting reduces pests"),
    ),
    DomainFamily(
        name="fitness",
        phrase_pattern=("fitness", "programs", "for", "{}"),
        attributes=(
            AttributeType("program", _title_pool()),
            AttributeType("coach", _PEOPLE),
            AttributeType("sessions", (), numeric=True),
            AttributeType("level", _LEVELS),
        ),
        content_pool=_CONTENT_GENERIC + ("warm up before every session", "progress is tracked automatically"),
    ),
    DomainFamily(
        name="fashion",
        phrase_pattern=("fashion", "store", "for", "{}"),
        attributes=(
            AttributeType("item", _title_pool()),
            AttributeType("designer", _PEOPLE),
            AttributeType("price", (), numeric=True),
            AttributeType("material", _MATERIALS),
        ),
        content_pool=_CONTENT_GENERIC + ("size charts are provided for every item", "returns are accepted within thirty days"),
    ),
    DomainFamily(
        name="electronics",
        phrase_pattern=("electronics", "store", "for", "{}"),
        attributes=(
            AttributeType("device", _title_pool()),
            AttributeType("manufacturer", _COMPANIES),
            AttributeType("price", (), numeric=True),
            AttributeType("warranty", (), numeric=True),
        ),
        content_pool=_CONTENT_GENERIC + ("benchmarks accompany every review", "firmware updates extend device life"),
    ),
)


def build_taxonomy() -> List[Topic]:
    """Materialise the full topic list (one topic per family × category)."""
    topics: List[Topic] = []
    topic_id = 0
    for family_index, family in enumerate(FAMILY_SPECS):
        for category in family_categories(family_index):
            phrase = tuple(
                token.format(category) if "{}" in token else token
                for token in family.phrase_pattern
            )
            topics.append(
                Topic(
                    topic_id=topic_id,
                    family=family.name,
                    category=category,
                    phrase=phrase,
                    attributes=family.attributes,
                    content_pool=family.content_pool,
                )
            )
            topic_id += 1
    return topics
