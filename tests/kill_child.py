"""A vtagent run that dies at a chosen model call, for test_kill_resume.py.

    python tests/kill_child.py K COMMAND [ARGS...]

runs `vtagent COMMAND ARGS...` in this process against `reply`, a model that
answers from the request alone, and SIGKILLs the process at model call K.
Not a test module: it imports no pytest, so it starts fast.
"""

import os
import signal
import sys
import threading

from vtagent import cli
from vtagent.backends import FunctionBackend, GenerationRequest, TextPart


def reply(request: GenerationRequest) -> str:
    """The reply to a request of a manifest whose sample i asks "question i?"
    and is answered "answer i". The request's seed picks a malformed anchor
    reply, or a wrong answer, about one time in three, so runs retry the
    anchor turn, answer wrong, and give curation mixed outcomes."""
    parts = request.messages[-1].parts
    question = next(p.text for p in parts
                    if isinstance(p, TextPart) and p.text.startswith("Question: "))
    hit = request.seed % 3 != 0
    if "select key frame" in parts[0].text:
        return ("<reasoning>r</reasoning><action>select key frame: [0, 1]</action>"
                if hit else "no action")
    gold = question.replace("Question: question ", "answer ").rstrip("?")
    return f"<reasoning>r</reasoning><action>answer: {gold if hit else 'wrong'}</action>"


def killing_backend(kill_at: int) -> FunctionBackend:
    lock = threading.Lock()
    calls = 0

    def fn(request: GenerationRequest) -> str:
        nonlocal calls
        with lock:
            calls += 1
            if calls == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
        return reply(request)

    return FunctionBackend(fn)


if __name__ == "__main__":
    kill_at = int(sys.argv[1])
    cli.build_backend = lambda cfg: killing_backend(kill_at)
    sys.exit(cli.main(sys.argv[2:]))
