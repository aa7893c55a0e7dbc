#!/usr/bin/env bash
# Markdown dead-link check for the top-level docs (CI job `doc-links`).
#
# Validates every inline link target in README.md / DESIGN.md /
# EXPERIMENTS.md / ROADMAP.md / CLAUDE.md without touching the network:
#
#   * relative file links must name an existing file or directory;
#   * `#anchor` fragments (same-file or cross-file) must match a heading
#     in the target document, using GitHub's slug rules (lowercase,
#     punctuation stripped, spaces to hyphens);
#   * http(s)/mailto targets are skipped — external liveness is not a
#     property of this repository.
#
# Exits nonzero listing every dead link. Plain bash + grep + sed; no
# dependencies, so it runs identically in CI and locally:
#
#   ci/check_md_links.sh
set -u
cd "$(dirname "$0")/.."

FILES=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CLAUDE.md)
fail=0

# GitHub-style heading slug: lowercase, drop markdown emphasis, drop
# everything but alphanumerics/spaces/hyphens/underscores, spaces→hyphens.
slug() {
    printf '%s' "$1" |
        tr '[:upper:]' '[:lower:]' |
        sed -e 's/[`*]//g' -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g'
}

# All heading anchors of a markdown file, one per line.
anchors_of() {
    grep -E '^#{1,6} ' "$1" | sed -E 's/^#+ +//' |
        while IFS= read -r heading; do
            slug "$heading"
        done
}

for f in "${FILES[@]}"; do
    if [ ! -f "$f" ]; then
        echo "$0: missing doc: $f"
        fail=1
        continue
    fi
    # Inline link/image targets: the parenthesized part of [text](target),
    # with any ' "title"' suffix cut at the first space.
    while IFS= read -r target; do
        [ -z "$target" ] && continue
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        path=${target%%#*}
        anchor=""
        case "$target" in
        *#*) anchor=${target#*#} ;;
        esac
        if [ -n "$path" ] && [ ! -e "$path" ]; then
            echo "$f: dead link ($target): no such file: $path"
            fail=1
            continue
        fi
        if [ -n "$anchor" ]; then
            tf=${path:-$f}
            case "$tf" in
            *.md) ;;
            *) continue ;; # anchors into non-markdown targets: not checked
            esac
            if ! anchors_of "$tf" | grep -qx -- "$(slug "$anchor")"; then
                echo "$f: dead link ($target): no heading '#$anchor' in $tf"
                fail=1
            fi
        fi
    done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//; s/ .*$//')
done

if [ "$fail" -ne 0 ]; then
    echo "dead markdown links found"
    exit 1
fi
echo "markdown links OK (${FILES[*]})"
