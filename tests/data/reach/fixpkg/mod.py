"""Reach-audit fixture: each def's name says whether ``main`` reaches it."""

import functools
import subprocess
import sys
import threading


def decorated(function):
    @functools.wraps(function)
    def wrapper(*args):
        return function(*args)

    return wrapper


def reached_directly():
    return 1


@decorated
def reached_through_a_decorator():
    return 2


class Widget:
    def reached_in_a_thread(self):
        return 3

    def never_called(self):
        return 4


def listed_and_never_called():
    return 5


def reached_in_a_grandchild():
    return 6


def main():
    reached_directly()
    reached_through_a_decorator()
    thread = threading.Thread(target=Widget().reached_in_a_thread)
    thread.start()
    thread.join()
    subprocess.run([sys.executable, "-c",
                    "import fixpkg.mod; fixpkg.mod.reached_in_a_grandchild()"],
                   check=True)
