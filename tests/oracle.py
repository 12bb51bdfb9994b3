"""The binary reading of a rule set spelled out as trees, for the oracle tests.

A synthesized network's IIM rule sets hold the ternary rules of its MIIM
rule sets, and the compiler reads them as binary.  The interpretive
``idr.evaluate`` reads a tree as its operators say, so the oracle tests
evaluate ``translate_to_iim`` of each rule instead.
"""

import weakref

from jointgrid.idr import IIM, translate_to_iim
from jointgrid.network import AvailabilityRules, RuleSet

_READ: "weakref.WeakKeyDictionary[RuleSet, RuleSet]" = weakref.WeakKeyDictionary()


def read(rule_set):
    """``rule_set`` with every rule as its model reads it: under IIM, each
    rule's ``translate_to_iim``, translated once per rule set."""
    if rule_set.model != IIM:
        return rule_set
    found = _READ.get(rule_set)
    if found is None:
        rules = [translate_to_iim(rule) for rule in rule_set.rules]
        availability = {
            sub_id: AvailabilityRules(translate_to_iim(avail.scada), avail.pmu and translate_to_iim(avail.pmu))
            for sub_id, avail in rule_set.availability.items()
        }
        found = _READ[rule_set] = RuleSet(IIM, rule_set.case, rules, availability)
    return found
