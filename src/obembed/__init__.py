"""Open book calculus for closed orientable 3-manifolds.

Pages are compact orientable surfaces with boundary, monodromies are
words of Dehn twists along configured curves, and every computation is
exact integer linear algebra.  The embedder module emits machine
checkable certificates for page embeddings into disk bundles over the
sphere and for embedding plans into S5.
"""

from .intlinalg import AbelianGroup, IntMatrix, cokernel, smith_normal_form
from .surface import (ConfiguredCurve, CurveConfig, Surface, lickorish_system,
                      load_config_override, validate_config)
from .mcg import (TwistWord, WordSyntaxError, arc_defect, format_word, parse_word,
                  relation_report, twist_matrix, word_action)
from .openbook import (AbstractOpenBook, JoinBoundaries, OpenBookParseError,
                       SameBoundary, closed_h1, identify_known, mapping_torus_h1,
                       parse_openbook, read_openbook, reduce_to_one_boundary,
                       serialize_openbook, stabilize_positive, write_openbook)
from . import embedder

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "IntMatrix", "cokernel", "smith_normal_form",
    "ConfiguredCurve", "CurveConfig", "Surface",
    "lickorish_system", "load_config_override", "validate_config",
    "TwistWord", "WordSyntaxError", "arc_defect", "format_word", "parse_word",
    "relation_report", "twist_matrix", "word_action",
    "AbstractOpenBook", "JoinBoundaries", "OpenBookParseError", "SameBoundary",
    "closed_h1", "identify_known", "mapping_torus_h1", "parse_openbook",
    "read_openbook", "reduce_to_one_boundary", "serialize_openbook",
    "stabilize_positive", "write_openbook",
    "embedder",
]
