#!/usr/bin/env python3
"""Check that the README's failpoint list matches the code.

    scripts/check_failpoints.py

Collects every `fail_point!("crate::site")` under crates/*/src (the
ucp-failpoints crate itself excepted: its docs and tests use sample
names) and every backticked `crate::site` name in the README's "Fault
injection" bullet, prints the names found on one side only, and exits 1
if there are any. Run from the repository root.
"""

import pathlib
import re
import sys

SITE = re.compile(r'fail_point!\(\s*"([^"]+)"')
NAME = re.compile(r"`([a-z_]+::[a-z_]+)`")


def code_sites():
    sites = set()
    for path in pathlib.Path("crates").glob("*/src/**/*.rs"):
        if path.parts[1] == "failpoints":
            continue
        sites.update(SITE.findall(path.read_text()))
    return sites


def readme_sites():
    text = pathlib.Path("README.md").read_text()
    start = text.index("* **Fault injection.**")
    end = text.find("\n\n", start)
    bullet = text[start:end]
    nxt = bullet.find("\n* ", 1)
    if nxt != -1:
        bullet = bullet[:nxt]
    return set(NAME.findall(bullet))


def main():
    code, readme = code_sites(), readme_sites()
    for name in sorted(code - readme):
        print(f"failpoint {name} is in the code but not in README.md")
    for name in sorted(readme - code):
        print(f"failpoint {name} is in README.md but not in the code")
    if code != readme:
        return 1
    print(f"{len(code)} failpoints: README.md matches the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
