"""Binary codes correcting one deletion followed by at most one erasure.

The code with parameters (n, a1, a2) is the set of n-bit words whose bit sum
is a1 mod 3 and whose position-weighted sum is a2 mod (n+1).  Any member can
be recovered after one bit is deleted and a later bit erased, given only the
erasure position; the best parameter class costs under log2(3(n+1)) bits of
redundancy.
"""
