#!/usr/bin/env bash
# Fail when a crash plan splits its random stream inline.
#
# A seeded random run needs two streams split from one generator: the
# schedule's and the crash plan's.  When both `Prng.split` calls sit
# inside one record or tuple literal, which stream comes first is the
# compiler's choice of evaluation order, not the code's.  So every
# seeded run builds its config with `Driver.seeded_config`
# (lib/sched/driver.ml), which `let`-binds the schedule's split before
# the crash plan's.  This guard reports, by file and line, every
# `Crash_plan.faulted` call (possibly spanning several lines) whose
# arguments contain a `Prng.split`, anywhere except lib/sched/driver.ml.
# bench/perf is skipped: its one site already `let`-binds the
# schedule's split before the crash plan's.
#
# Usage: tools/check_seeding.sh            scan lib bin bench test examples
#        tools/check_seeding.sh FILE...    scan the given files only

set -u

if [ "$#" -gt 0 ]; then
  files=("$@")
else
  cd "$(dirname "$0")/.." || exit 1
  mapfile -t files < <(find lib bin bench test examples -name '*.ml' \
    -not -path 'bench/perf/*' -not -path 'lib/sched/driver.ml' | sort)
fi

# A call's arguments run until the first `;`, `}`, `]`, unmatched `)` or
# expression keyword outside parentheses; parenthesised groups (nested
# ones included) are taken whole, across lines.
perl -0777 -ne '
  while (/Crash_plan\.faulted
          ((?: (?!\b(?:in|let|then|else|with|do|done|and|end)\b) [^;(){}\[\]]
             | (\( (?: [^()]++ | (?2) )* \)) )*)/gsx) {
    my ($args, $at) = ($1, $-[0]);
    if ($args =~ /Prng\.split/) {
      my $line = 1 + (substr($_, 0, $at) =~ tr/\n//);
      print "$ARGV:$line: Crash_plan.faulted splits its stream inline;",
        " build the config with Driver.seeded_config\n";
      $bad = 1;
    }
  }
  END { exit($bad ? 1 : 0) }
' "${files[@]}"
status=$?

if [ "$status" -ne 0 ]; then
  echo "seeding check: FAILED"
  exit 1
fi
echo "seeding check: ok (${#files[@]} files)"
