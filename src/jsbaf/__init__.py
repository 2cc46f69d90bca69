"""Structured argumentation over joint-support bipolar argumentation frameworks.

The package builds arguments from strict and defeasible rules over a
propositional base logic, translates them into frameworks whose supports
record strict-rule applications, computes admissible, preferred and
grounded labelings, and checks the rationality postulates (closure,
direct and indirect consistency, non-interference) on concrete and
randomly generated instances.
"""
