#!/usr/bin/env bash
# Fail when library or CLI code refers to the `Domain` module.
#
# The program runs on one domain: parallel torture runs in worker
# processes (`campaign --workers`), so module-level state such as
# `Value`'s intern table and `Fiber`'s ghost feed is plain global state
# with no lock and no domain-local storage.  A `Domain.spawn` (or a
# `Domain.DLS` key) would silently break that assumption, so this guard
# reports, by file and line, every `Domain.` in lib/ and bin/.  bench/
# may still read `Domain.recommended_domain_count` to describe the host.
#
# Usage: tools/check_no_domains.sh            scan lib and bin
#        tools/check_no_domains.sh FILE...    scan the given files only

set -u

if [ "$#" -gt 0 ]; then
  files=("$@")
else
  cd "$(dirname "$0")/.." || exit 1
  mapfile -t files < <(find lib bin -name '*.ml' -o -name '*.mli' | sort)
fi

if grep -nHE '(^|[^A-Za-z0-9_'\''])Domain\.' "${files[@]}"; then
  echo "domain check: FAILED (the program runs on one domain; use worker processes)"
  exit 1
fi
echo "domain check: ok (${#files[@]} files)"
