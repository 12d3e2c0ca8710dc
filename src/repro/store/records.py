"""Fact records: the store's entity/relationship vocabulary.

Entities are namespaced string identifiers (``as:9198``,
``device:5.2.0.2``, ``country:KZ``) and facts are
(subject, predicate, object) triples — the same shape
internet-yellow-pages uses for its AS/prefix/country graph, minus the
graph database. A fact carries no epoch itself; the store records *when*
each fact was observed (``facts.jsonl`` assertion lines), and validity
intervals are derived at query time.
"""

from __future__ import annotations

from dataclasses import dataclass

# Predicates ----------------------------------------------------------------

#: subject blocks using mechanism ``object`` (a CenTrace blocking type:
#: RST/FIN/HTTP/TIMEOUT/DNSINJECT).
PRED_BLOCKS_WITH = "blocks_with"
#: subject censors ``object`` (a domain).
PRED_BLOCKS_DOMAIN = "blocks_domain"
#: AS subject hosts censoring device ``object`` (a device entity).
PRED_HOSTS_DEVICE = "hosts_device"
#: device subject identified as vendor ``object`` (CenProbe, §5.2).
PRED_VENDOR = "vendor"
#: device subject serves blockpage fingerprint ``object`` (§6.1).
PRED_SERVES_BLOCKPAGE = "serves_blockpage"
#: AS subject registered under name ``object`` (registry metadata).
PRED_NAMED = "named"
#: AS subject geolocated in country ``object``.
PRED_IN_COUNTRY = "in_country"

PREDICATES = (
    PRED_BLOCKS_WITH,
    PRED_BLOCKS_DOMAIN,
    PRED_HOSTS_DEVICE,
    PRED_VENDOR,
    PRED_SERVES_BLOCKPAGE,
    PRED_NAMED,
    PRED_IN_COUNTRY,
)


def entity_as(asn: int) -> str:
    return f"as:{asn}"


def entity_device(ip: str) -> str:
    """A censoring device, identified by its observed blocking-hop IP."""
    return f"device:{ip}"


def entity_country(code: str) -> str:
    return f"country:{code}"


@dataclass(frozen=True)
class Fact:
    """One (subject, predicate, object) assertion."""

    subject: str
    predicate: str
    object: str
