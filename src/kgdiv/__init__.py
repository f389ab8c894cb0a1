"""Actor diversity over linked-data entities and knowledge-source
representation audits.

Public names load lazily: `from kgdiv import X` imports X's submodule on
first use, so importing the package costs no submodule import. The two
errors the CLI catches, the warning helper and the SPARQL dialects live
here, so that the CLI and the audit load neither config, sparql nor
logging to use them.
"""

import importlib

#: submodule -> the public names it defines
_EXPORTS = {
    "audit": (
        "DEFAULT_SCHEDULE BaselineTable NormalizationMap PartyRecord "
        "baseline_share classify compute_bounds judge read_snapshot run_audit"
    ),
    "csvformat": "ALIGNMENTS emit_series_csv",
    "diversity": (
        "ACTOR_TYPES BalanceVector DisparityMatrix DiversityParams DiversityResult "
        "FeatureSet compute_balance compute_disparity stirling_delta"
    ),
    "pipeline": (
        "AnnotationClient EntityMention LocalOntology MatchRule TextDocument "
        "aggregate_mentions annotate enrich_entity rule_counts"
    ),
    "report": "FigureSpec emit_figure_svg",
    "sparql": "EndpointConfig QueryTemplate execute_query parse_results",
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

# constants, then classes, then functions
__all__ = sorted(_MODULE_OF, key=lambda name: (not name.isupper(), name[0].islower(), name))


#: the SPARQL dialects `fetch` queries; each has a default endpoint
DIALECTS = ("en-dbpedia", "nl-dbpedia", "wikidata")


class ConfigError(Exception):
    """Unusable configuration: unknown keys, missing files, bad values."""


class QueryError(RuntimeError):
    """Base class for query execution failures."""


def warn(logger: str, message: str, *args) -> None:
    """Log a warning, importing logging only when one fires. The root
    logger gets the CLI's `LEVEL message` format unless it has a handler."""
    import logging

    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    logging.getLogger(logger).warning(message, *args)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
