"""Shared exception hierarchy.

InputError covers anything a caller can fix (bad documents, invalid posets,
violated preconditions) and maps to CLI exit code 2.  CriteriaDisagreement
is the theorem-violation canary: equivalent Koszulity criteria returned
different answers.  InvariantError is raised when an internal invariant of
a computation fails (d o d != 0, a broken Euler balance, an incoherent
dual); unlike an assert it survives python -O.  Neither must ever fire;
the CLI maps both to exit code 3.
"""


class KoszulityError(Exception):
    pass


class InputError(KoszulityError):
    pass


class StructureError(InputError):
    'Graded ring/coring data violates a structural invariant.'


class PreconditionError(InputError):
    'Operation precondition violated (e.g. input not strongly graded).'


class CriteriaDisagreement(KoszulityError):
    'Equivalent criteria disagreed; indicates an internal error, never a verdict.'


class InvariantError(KoszulityError):
    'An internal invariant failed; indicates an internal error, never a verdict.'
