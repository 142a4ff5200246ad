"""Braid words mapped into involution-generated targets with pentagon
relations, verified against an exact geometric event tracer."""

from .braids import (
    BraidWord,
    braid,
    braid_inverse,
    parse_braid,
    print_braid,
    relation_instances,
)
from .generators import (
    BraidGen,
    GammaGen,
    GGen,
    select_quad,
)
from .geom2d import (
    Choreography,
    Event,
    Move,
    Pt2,
    base_config,
    braid_choreography,
    choreography_from_json,
    choreography_to_json,
    concat,
    events_to_word,
    generator_choreography,
    incircle_sign,
    load_choreography,
    pt2,
    reverse,
    subdivide,
    trace,
)
from .geom3d import (
    Event3,
    Pt3,
    loop_word,
    orient3d_sign,
    pt3,
    trace3,
)
from .homs import (
    HomConfig,
    generator_image,
    image_invariant,
    inside_count,
    letter_slot,
    map_braid,
    passage,
)
from .words import (
    GammaWord,
    GWord,
    InvariantClass,
    MultiWord,
    free_reduce,
    gamma_columns,
    invariant,
    invariant_equal,
    invert,
    parse_word,
    pentagon_faces,
    pentagon_rows,
    word_to_text,
)

__version__ = "0.1.0"
