"""The one patch point of the tests that make the decoding kernel reject or change a row."""

import pytest

from ordel import decoder


@pytest.fixture
def edit_kernel(monkeypatch):
    """``edit_kernel(edit)`` wraps ``decoder.decode_batch``, the kernel ``decoder.round_trip``
    calls: ``edit(y, e, words, status)`` sees each call's received rows and erasure positions,
    and may change copies of the decoded words and statuses in place before they are returned.
    A second wrap takes the first as its kernel."""

    def install(edit):
        real = decoder.decode_batch

        def edited(y, n, e, a1, a2):
            words, k, status = real(y, n, e, a1, a2)
            words, status = words.copy(), status.copy()
            edit(y, e, words, status)
            return words, k, status

        monkeypatch.setattr(decoder, "decode_batch", edited)

    return install
