"""Recog-style fingerprint repository for device banners (§5.1).

Each rule is a regex over a banner (or admin-page body / SNMP sysDescr)
with a vendor label. The repository mirrors how the paper combines
Rapid7's Recog with manual investigation to label filtering devices.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class FingerprintRule:
    """One banner fingerprint."""

    name: str
    protocols: Tuple[str, ...]  # which services this rule applies to
    pattern: str
    vendor: str
    is_filtering_product: bool = True  # vs. merely identifying the OS

    def __post_init__(self) -> None:
        # Compiled once; not a field, so equality and hash stay those of
        # the pattern text.
        object.__setattr__(
            self, "_regex", re.compile(self.pattern, re.IGNORECASE)
        )

    def search(self, text: str) -> bool:
        return self._regex.search(text) is not None


RULES: List[FingerprintRule] = [
    FingerprintRule(
        name="fortinet.ssh",
        protocols=("ssh",),
        pattern=r"FortiSSH",
        vendor="Fortinet",
    ),
    FingerprintRule(
        name="fortinet.http.admin",
        protocols=("http", "https"),
        pattern=r"FortiGate",
        vendor="Fortinet",
    ),
    FingerprintRule(
        name="fortinet.telnet",
        protocols=("telnet",),
        pattern=r"FortiGate",
        vendor="Fortinet",
    ),
    FingerprintRule(
        name="cisco.ssh",
        protocols=("ssh",),
        pattern=r"SSH-2\.0-Cisco",
        vendor="Cisco",
    ),
    FingerprintRule(
        name="cisco.telnet",
        protocols=("telnet",),
        pattern=r"User Access Verification",
        vendor="Cisco",
    ),
    FingerprintRule(
        name="cisco.snmp",
        protocols=("snmp",),
        pattern=r"Cisco IOS",
        vendor="Cisco",
    ),
    FingerprintRule(
        name="kerio.http",
        protocols=("http", "https"),
        pattern=r"Kerio Control",
        vendor="Kerio Control",
    ),
    FingerprintRule(
        name="paloalto.ssh",
        protocols=("ssh",),
        pattern=r"SSH-2\.0-PaloAlto",
        vendor="Palo Alto",
    ),
    FingerprintRule(
        name="paloalto.http",
        protocols=("http", "https"),
        pattern=r"Palo Alto Networks|GlobalProtect",
        vendor="Palo Alto",
    ),
    FingerprintRule(
        name="ddosguard.http",
        protocols=("http", "https"),
        pattern=r"ddos-guard",
        vendor="DDoS-Guard",
    ),
    FingerprintRule(
        name="mikrotik.ftp",
        protocols=("ftp",),
        pattern=r"MikroTik",
        vendor="Mikrotik",
    ),
    FingerprintRule(
        name="mikrotik.ssh",
        protocols=("ssh",),
        pattern=r"ROSSSH",
        vendor="Mikrotik",
    ),
    FingerprintRule(
        name="mikrotik.snmp",
        protocols=("snmp",),
        pattern=r"RouterOS",
        vendor="Mikrotik",
    ),
    FingerprintRule(
        name="kaspersky.http",
        protocols=("http", "https", "smtp"),
        pattern=r"Kaspersky Web Traffic Security|KWTS",
        vendor="Kaspersky",
    ),
    FingerprintRule(
        name="netsweeper.http",
        protocols=("http", "https"),
        pattern=r"Netsweeper",
        vendor="Netsweeper",
    ),
    FingerprintRule(
        name="sonicwall.http",
        protocols=("http", "https"),
        pattern=r"SonicWall",
        vendor="SonicWall",
    ),
    FingerprintRule(
        name="squid.http",
        protocols=("http", "https"),
        pattern=r"squid",
        vendor="Squid",
    ),
    FingerprintRule(
        name="sophos.http",
        protocols=("http", "https"),
        pattern=r"Sophos Web Appliance",
        vendor="Sophos",
    ),
    # OS-level fingerprints: identify the platform but not filtering
    # software; kept to show the precision boundary §5.3 describes.
    FingerprintRule(
        name="openssh.generic",
        protocols=("ssh",),
        pattern=r"SSH-2\.0-OpenSSH",
        vendor="OpenSSH",
        is_filtering_product=False,
    ),
    FingerprintRule(
        name="nginx.generic",
        protocols=("http", "https"),
        pattern=r"nginx",
        vendor="nginx",
        is_filtering_product=False,
    ),
]


class FingerprintRepository:
    """Matches collected banners against the rule set."""

    def __init__(self, rules: Optional[List[FingerprintRule]] = None) -> None:
        # An explicitly empty rule list is a valid (if useless) repo;
        # only None falls back to the built-in corpus.
        self.rules = list(RULES if rules is None else rules)

    def match(self, protocol: str, text: str) -> Optional[FingerprintRule]:
        """The first rule matching ``text`` collected over ``protocol``."""
        for rule in self.rules:
            if protocol in rule.protocols and rule.search(text):
                return rule
        return None

    def match_filtering_vendor(self, protocol: str, text: str) -> Optional[str]:
        rule = self.match(protocol, text)
        if rule is not None and rule.is_filtering_product:
            return rule.vendor
        return None

    def add(self, rule: FingerprintRule) -> None:
        self.rules.append(rule)


DEFAULT_REPOSITORY = FingerprintRepository()
