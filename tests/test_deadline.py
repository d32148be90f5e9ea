import re
import signal
import time

import pytest

from conftest import TEST_DEADLINE_S, deadline


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM on this platform")
def test_a_call_past_its_deadline_fails_by_name(request):
    # A sleep far past a shortened deadline is cut off as a failure of the
    # named test, and the per-test deadline is armed again afterwards.
    name = request.node.nodeid
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception, match=re.escape(name) + " ran past its deadline"):
        with deadline(name, 0.05):
            time.sleep(30)
    assert time.perf_counter() - start < 5
    remaining, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < remaining <= TEST_DEADLINE_S
