#!/usr/bin/env bash
# reach.sh — fail when a function declared under internal/ is linked into
# no program.
#
# It builds every program of the repository with inlining off
# (-gcflags=all=-l), so each called function keeps a symbol of its own:
# the CLIs (./cmd/...), the examples (./examples/...), the paper-printout
# test binary (go test -c .) and bench/hxbench. It then compares the
# hammingmesh/internal/ text symbols `go tool nm` lists in those binaries
# with the functions and methods declared in the non-test .go files under
# internal/. A declared function that no binary links must be listed in
# tools/reach_allow.txt with a reason, or the script exits 1. An allowlist
# entry without a reason, or one naming a function that is linked again or
# no longer declared, fails too, so the list names only what is still
# unreached.
#
# Usage:
#   tools/reach.sh
#
# Allowlist lines (tools/reach_allow.txt; '#' starts a comment):
#   <pkg>.<Func>          <reason>
#   <pkg>.<Type>.<Method> <reason>   (pointer and value receivers alike)
#   <pkg>.*               <reason>   (a package no program imports)
set -euo pipefail
cd "$(dirname "$0")/.."
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/cmd" "$tmp/examples"

gcflags='-gcflags=all=-l'
go build "$gcflags" -o "$tmp/cmd/" ./cmd/...
go build "$gcflags" -o "$tmp/examples/" ./examples/...
go test -c "$gcflags" -o "$tmp/paper.test" .
go -C bench build "$gcflags" -o "$tmp/hxbench" ./hxbench

# Linked: every hammingmesh/internal/ text symbol, keyed as <pkg>.<Func> or
# <pkg>.<Type>.<Method>. Type arguments ([go.shape...], which may hold
# spaces and nested brackets) are dropped, pointer receivers lose their
# (*...), and closures (.funcN, .gowrapN, .deferwrapN, -rangeN) and method
# values (-fm) count for the function that declares them.
for bin in "$tmp"/cmd/* "$tmp"/examples/* "$tmp/paper.test" "$tmp/hxbench"; do
  go tool nm "$bin"
done | awk '
  {
    if ($2 != "T" && $2 != "t") next
    sym = $0
    sub(/^ *[0-9a-f]+ [Tt] /, "", sym)
    if (index(sym, "hammingmesh/internal/") != 1) next
    sym = substr(sym, length("hammingmesh/internal/") + 1)
    out = ""; depth = 0
    for (i = 1; i <= length(sym); i++) {
      c = substr(sym, i, 1)
      if (c == "[") depth++
      else if (c == "]") depth--
      else if (depth == 0) out = out c
    }
    gsub(/\(\*/, "", out); gsub(/\)/, "", out)
    sub(/-fm$/, "", out)
    while (sub(/(\.(func|gowrap|deferwrap)[0-9]+|-range[0-9]+)$/, "", out)) {}
    print out
  }' | sort -u > "$tmp/linked"

# Declared: every func in a non-test .go file under internal/, with the
# file and line it is declared at. init functions are left out: a package
# that is linked at all links them.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
  pkg="${f#internal/}"
  pkg="${pkg%/*}"
  awk -v pkg="$pkg" -v file="$f" '
    /^func / {
      line = $0
      sub(/^func /, "", line)
      recv = ""
      if (substr(line, 1, 1) == "(") {
        recv = substr(line, 2, index(line, ")") - 2)
        line = substr(line, index(line, ")") + 1)
        sub(/^ +/, "", line)
        gsub(/\[[^]]*\]/, "", recv)
        n = split(recv, w, " ")
        recv = w[n]
        sub(/^\*/, "", recv)
      }
      match(line, /^[A-Za-z0-9_]+/)
      name = substr(line, 1, RLENGTH)
      if (recv == "" && (name == "init" || name == "_")) next
      key = pkg "." (recv == "" ? "" : recv ".") name
      print key "\t" file ":" NR
    }' "$f"
done | sort -t "$(printf '\t')" -k1,1 > "$tmp/declared"

# Unreached: declared but never linked.
join -t "$(printf '\t')" -v 1 "$tmp/declared" "$tmp/linked" > "$tmp/unreached"

# The allowlist, without comments and blank lines.
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' tools/reach_allow.txt > "$tmp/allow"

status=0
awk -v unreached="$tmp/unreached" -v declared="$tmp/declared" -v linked="$tmp/linked" '
  BEGIN {
    while ((getline l < unreached) > 0) { split(l, f, "\t"); where[f[1]] = f[2] }
    while ((getline l < declared) > 0) {
      split(l, f, "\t"); decl[f[1]] = 1
      p = f[1]; sub(/\..*/, "", p); pkgdecl[p] = 1
    }
    while ((getline l < linked) > 0) { p = l; sub(/\..*/, "", p); pkglinked[p] = 1 }
  }
  {
    key = $1
    reason = $0; sub(/^[^ \t]+[ \t]*/, "", reason)
    if (reason == "") { print "reach_allow.txt: " key " has no reason"; bad = 1 }
    if (key ~ /\.\*$/) {
      p = key; sub(/\.\*$/, "", p)
      if (!(p in pkgdecl)) { print "reach_allow.txt: " key " names no package under internal/"; bad = 1 }
      else if (p in pkglinked) { print "reach_allow.txt: " key " is linked by a program; list its unreached functions instead"; bad = 1 }
      pkgallow[p] = 1
    } else {
      if (!(key in decl)) { print "reach_allow.txt: " key " is not declared under internal/"; bad = 1 }
      else if (!(key in where)) { print "reach_allow.txt: " key " is linked by a program; drop the entry"; bad = 1 }
      allow[key] = 1
    }
  }
  END {
    n = 0
    for (k in where) {
      p = k; sub(/\..*/, "", p)
      if (!(k in allow) && !(p in pkgallow)) { print "unreached: " k " (" where[k] ")"; n++ }
    }
    if (n > 0) print n " function(s) under internal/ are linked into no program: delete them, or list each in tools/reach_allow.txt with the reason it stays"
    exit (bad || n > 0)
  }' "$tmp/allow" | sort || status=1

ndecl=$(wc -l < "$tmp/declared")
nun=$(wc -l < "$tmp/unreached")
echo "reach: $ndecl functions declared under internal/, $((ndecl - nun)) linked into a program, $nun unreached"
exit "$status"
