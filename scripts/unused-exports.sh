#!/usr/bin/env bash
# Exported functions, methods, constants and variables under internal/
# that nothing references.
#
#   scripts/unused-exports.sh
#
# Every exported func or method, and every exported name a top-level const
# or var declaration (or block) declares, in a non-test file under
# internal/ is looked for in the Go source of this module and of the
# bench/ module (both read only): any line that names it, other than its
# own declaration and comment lines, is a reference. A package-level
# function, constant or variable is matched by package: as pkg.Name in a
# file that imports its package as pkg, or as a bare Name in a file of
# its own package. A method is matched by name. A name the allowlist
# below gives, with the reason it has no caller in the source (a method
# the standard library reaches through an interface, or by reflection),
# is skipped. The check fails on a name nothing references. A name that
# only tests reference is printed and does not fail the check: a test
# oracle or a paper-equation probe may be kept on purpose. Except an
# option constructor (With*) that only tests call: it is a setting no
# binary sets, and such a value is a constant of its package, which a test
# that needs another value changes through an unexported seam.
#
# A method shares its references with every other function or method of
# that name, and a package-level name with every identifier of that name
# in its own package (a field, a local): the check can miss an unused
# export whose name is common, and never reports a used one.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# name<TAB>why nothing in the source calls it
allow='MarshalText	encoding.TextMarshaler: encoding/json calls it on map keys and values
UnmarshalText	encoding.TextUnmarshaler: encoding/json calls it on map keys and values
Error	error: reached through the interface by fmt and errors
String	fmt.Stringer: reached through the interface by fmt'

mapfile -t files < <(find . -name '*.go' -not -path './.bench_build/*' -not -path '*/testdata/*')
status=0
report=$(awk -v allow="$allow" -v module="$(awk '/^module /{print $2; exit}' go.mod)" '
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
		dir = FILENAME
		sub(/\/[^\/]*$/, "", dir)
		pkg = ""
		split("", imports) # qualifier -> the directory of a package of this module
		imports_block = 0
		block = 0 # inside a top-level const ( ... ) or var ( ... )
	}
	/^[ \t]*\/\// { next }
	/^package / {
		pkg = $2
		next
	}
	/^import \(/ {
		imports_block = 1
		next
	}
	imports_block && /^\)/ {
		imports_block = 0
		next
	}
	imports_block || /^import / {
		if (match($0, /"[^"]*"/)) {
			path = substr($0, RSTART + 1, RLENGTH - 2)
			if (index(path, module "/") == 1) {
				q = path
				sub(/.*\//, "", q)
				if (match($0, /^(import)?[ \t]*[A-Za-z_][A-Za-z0-9_]* "/)) {
					q = $0
					sub(/^(import)?[ \t]*/, "", q)
					sub(/ .*/, "", q)
				}
				imports[q] = "." substr(path, length(module) + 1)
			}
		}
		next
	}
	{
		line = $0
		split("", skip)
		# head starts with the names this line declares, if it declares any.
		head = ""
		method = 0
		if (line ~ /^func /) {
			head = line
			method = head ~ /^func \(/
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
						key = method ? names[i] : dir "." names[i]
						decl[key] = decl[key] " " FILENAME ":" FNR
						shown[key] = method ? names[i] : pkg "." names[i]
					}
				}
			}
		}
		# A token is a reference by name (for methods) and, unless it is
		# a selector on an expression, by package: to the package its
		# qualifier imports, or, bare, to the package of this file.
		prev = ""
		while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
			tok = substr(line, RSTART, RLENGTH)
			gap = substr(line, 1, RSTART - 1)
			line = substr(line, RSTART + RLENGTH)
			qual = prev
			prev = tok
			if (skip[tok] > 0) {
				skip[tok]--
				continue
			}
			key = ""
			if (gap == "." && qual in imports) {
				key = imports[qual] "." tok
			} else if (gap !~ /\.$/ && pkg !~ /_test$/) {
				key = dir "." tok
			}
			if (test) {
				testRefs[tok]++
				testRefs[key]++
			} else {
				refs[tok]++
				refs[key]++
			}
		}
	}
	END {
		failed = 0
		for (key in decl) {
			name = key
			sub(/.*\./, "", name)
			if (name in allowed || refs[key] > 0) {
				continue
			}
			if (testRefs[key] == 0) {
				printf "UNUSED: %s (%s )\n", shown[key], decl[key]
				failed++
			} else if (name ~ /^With[A-Z]/) {
				printf "TEST-ONLY OPTION: %s (%s )\n", shown[key], decl[key]
				failed++
			} else {
				printf "test-only: %s (%s )\n", shown[key], decl[key]
			}
		}
		exit failed > 0
	}' "${files[@]}") || status=$?
sort <<<"$report"
if [ "$status" -ne 0 ]; then
	echo "exported functions, methods, constants or variables in internal/ that nothing references, or options only tests set: delete them" >&2
fi
exit "$status"
