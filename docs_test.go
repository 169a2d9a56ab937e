package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsFiles are the user-facing documents the CI docs leg link-checks.
var docsFiles = []string{"README.md", "ARCHITECTURE.md"}

// TestDocsFileReferencesResolve: every relative markdown link and every
// inline code span that names a repository path in README/ARCHITECTURE
// must point at something that exists — stale references are how docs
// rot.
func TestDocsFileReferencesResolve(t *testing.T) {
	link := regexp.MustCompile(`\]\(([^)#]+)(#[^)]*)?\)`)
	span := regexp.MustCompile("`([A-Za-z0-9_./-]+)`")
	for _, doc := range docsFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v (docs moved without updating docsFiles?)", doc, err)
		}
		text := string(raw)
		for _, m := range link.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") {
				continue // external URL; not checked offline
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s links to %q, which does not exist", doc, target)
			}
		}
		for _, m := range span.FindAllStringSubmatch(text, -1) {
			path := strings.TrimPrefix(m[1], "repro/")
			// Only spans that look like repository paths: they contain a
			// separator and live under a real top-level entry.
			if !strings.Contains(path, "/") {
				continue
			}
			root := path[:strings.Index(path, "/")]
			if root != "cmd" && root != "internal" && root != "examples" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s mentions `%s`, which does not exist", doc, m[1])
			}
		}
	}
}

// TestDocsFlagReferencesResolve: every -flag a README/ARCHITECTURE
// command line passes to pdmsort, pdmd, or a pdmctl subcommand must be
// declared by that binary, so the docs never teach flags the CLIs
// dropped.  pdmctl's subcommands each parse their own FlagSet; a flag
// counts as declared when any of them declares it.  Shell continuation
// lines ("\" at the end) are joined, so multi-line commands are checked
// whole.
func TestDocsFlagReferencesResolve(t *testing.T) {
	declared := func(mainPath string) map[string]bool {
		raw, err := os.ReadFile(mainPath)
		if err != nil {
			t.Fatal(err)
		}
		decl := regexp.MustCompile(`\b(?:flag|fs)\.(\w+)\(\s*(?:&[^,]*,\s*)?"([a-z]+)"`)
		flags := map[string]bool{}
		for _, m := range decl.FindAllStringSubmatch(string(raw), -1) {
			if m[1] != "NewFlagSet" {
				flags[m[2]] = true
			}
		}
		if len(flags) == 0 {
			t.Fatalf("%s declares no flags; the extraction regexp rotted", mainPath)
		}
		return flags
	}
	bins := []struct {
		invoked *regexp.Regexp // a command line running the binary
		name    string
		flags   map[string]bool
	}{
		{regexp.MustCompile(`\bpdmsort\s+-`), "pdmsort", declared("cmd/pdmsort/main.go")},
		{regexp.MustCompile(`\bpdmd\s+-`), "pdmd", declared("cmd/pdmd/main.go")},
		{regexp.MustCompile(`\bpdmctl\s+[a-z]+\s+-`), "pdmctl", declared("cmd/pdmctl/main.go")},
	}
	used := regexp.MustCompile(` -([a-z]+)`)
	for _, doc := range docsFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		for ln := 0; ln < len(lines); ln++ {
			start, line := ln, lines[ln]
			for strings.HasSuffix(line, "\\") && ln+1 < len(lines) {
				ln++
				line = strings.TrimSuffix(line, "\\") + " " + lines[ln]
			}
			for _, bin := range bins {
				if !bin.invoked.MatchString(line) {
					continue
				}
				for _, m := range used.FindAllStringSubmatch(line, -1) {
					if !bin.flags[m[1]] {
						t.Errorf("%s:%d passes -%s to %s, which declares no such flag", doc, start+1, m[1], bin.name)
					}
				}
			}
		}
	}
}
