#!/usr/bin/env bash
# Exported functions, methods, constants and variables under internal/
# that nothing references.
#
#   scripts/unused-exports.sh
#
# Every exported func or method, and every exported name a top-level const
# or var declaration (or block) declares, in a non-test file under
# internal/ is looked for, by name, in the Go source of this module and
# of the bench/ module (both read only): any line that names it, other
# than its own declaration and comment lines, is a reference. A name the
# allowlist below gives, with the reason it has no caller in the source (a
# method the standard library reaches through an interface, or by
# reflection), is skipped. The check fails on a name nothing references.
# A name that only tests reference is printed and does not fail the check:
# a test oracle or a paper-equation probe may be kept on purpose. Except an
# option constructor (With*) that only tests call: it is a setting no
# binary sets, and such a value is a constant of its package, which a test
# that needs another value changes through an unexported seam.
#
# The match is by name, not by type, so a method shares its references
# with every other function or method of that name: the check can miss an
# unused export whose name is common, and never reports a used one.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# name<TAB>why nothing in the source calls it
allow='MarshalText	encoding.TextMarshaler: encoding/json calls it on map keys and values
UnmarshalText	encoding.TextUnmarshaler: encoding/json calls it on map keys and values
Error	error: reached through the interface by fmt and errors
String	fmt.Stringer: reached through the interface by fmt'

mapfile -t files < <(find . -name '*.go' -not -path './.bench_build/*' -not -path '*/testdata/*')
status=0
report=$(awk -v allow="$allow" '
	BEGIN {
		n = split(allow, lines, "\n")
		for (i = 1; i <= n; i++) {
			split(lines[i], f, "\t")
			allowed[f[1]] = 1
		}
	}
	FNR == 1 {
		test = FILENAME ~ /_test\.go$/
		declares = !test && FILENAME ~ /^\.\/internal\//
		block = 0 # inside a top-level const ( ... ) or var ( ... )
	}
	/^[ \t]*\/\// { next }
	{
		line = $0
		split("", skip)
		# head starts with the names this line declares, if it declares any.
		head = ""
		if (line ~ /^func /) {
			head = line
			sub(/^func (\([^)]*\) )?/, "", head)
		} else if (line ~ /^(const|var) \(/) {
			block = 1
		} else if (block && line ~ /^\)/) {
			block = 0
		} else if (line ~ /^(const|var) /) {
			head = line
			sub(/^(const|var) /, "", head)
		} else if (block && line ~ /^\t[A-Za-z_]/) {
			head = substr(line, 2)
		}
		if (match(head, /^[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*/)) {
			n = split(substr(head, 1, RLENGTH), names, /, */)
			for (i = 1; i <= n; i++) {
				if (names[i] ~ /^[A-Z]/) {
					skip[names[i]]++
					if (declares) {
						decl[names[i]] = decl[names[i]] " " FILENAME ":" FNR
					}
				}
			}
		}
		while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
			tok = substr(line, RSTART, RLENGTH)
			line = substr(line, RSTART + RLENGTH)
			if (skip[tok] > 0) {
				skip[tok]--
				continue
			}
			if (test) {
				testRefs[tok]++
			} else {
				refs[tok]++
			}
		}
	}
	END {
		failed = 0
		for (name in decl) {
			if (name in allowed || refs[name] > 0) {
				continue
			}
			if (testRefs[name] == 0) {
				printf "UNUSED: %s (%s )\n", name, decl[name]
				failed++
			} else if (name ~ /^With[A-Z]/) {
				printf "TEST-ONLY OPTION: %s (%s )\n", name, decl[name]
				failed++
			} else {
				printf "test-only: %s (%s )\n", name, decl[name]
			}
		}
		exit failed > 0
	}' "${files[@]}") || status=$?
sort <<<"$report"
if [ "$status" -ne 0 ]; then
	echo "exported functions, methods, constants or variables in internal/ that nothing references, or options only tests set: delete them" >&2
fi
exit "$status"
