"""Independent oracles for orders the library computes another way.

The nine-digit counting helpers count the valid SSN values below n in
closed form, kept as a check on the SSN rank order.
"""

from fpekit.formats import SSN_SIZE


def _ssn_valid_below(n: int) -> int:
    # valid nine-digit values strictly below n, for n in [0, 10**9]
    area, rest = divmod(n, 1_000_000)
    if area > 899:
        return SSN_SIZE
    group, serial = divmod(rest, 10_000)
    full_areas = max(area - 1, 0) - (1 if area > 666 else 0)
    count = full_areas * (99 * 9999)
    if area not in (0, 666):
        count += max(group - 1, 0) * 9999
        if group != 0:
            count += max(serial - 1, 0)
    return count


def count_invalid_ssn_below(n: int) -> int:
    """Nine-digit values below n that break the area/group/serial rules."""
    if not 0 <= n < 10**9:
        raise ValueError(f"{n} not in [0, 10**9)")
    return n - _ssn_valid_below(n)
