package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMarkdownNamesExist keeps the docs and CI from sending readers to
// files that do not exist. In README.md, the notes of each skill kept in a
// dot directory (the verify skill's build notes), the CI workflows under
// .github/workflows and every Go file outside perfbench/ and testdata/,
// each *.md name must be a file at the repository root and each
// ./cmd/<name> or ./examples/<name> path a directory, so a CI step that
// runs a deleted command fails here first. CHANGES.md and ROADMAP.md are
// history, so they may name what is gone.
func TestMarkdownNamesExist(t *testing.T) {
	mdName := regexp.MustCompile(`[A-Za-z0-9_-]+\.md\b`)
	cmdPath := regexp.MustCompile(`\./((?:cmd|examples)/[A-Za-z0-9_-]+)`)
	check := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range mdName.FindAllString(line, -1) {
				if _, err := os.Stat(name); err != nil {
					t.Errorf("%s:%d names %s, which is not a file at the repository root", path, i+1, name)
				}
			}
			for _, m := range cmdPath.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(m[1]); err != nil || !st.IsDir() {
					t.Errorf("%s:%d names %s, which is not a directory", path, i+1, m[0])
				}
			}
		}
	}
	skills, err := filepath.Glob(".*/skills/*/*.md")
	if err != nil {
		t.Fatal(err)
	}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	if len(workflows) == 0 {
		t.Fatal("no CI workflow under .github/workflows")
	}
	for _, doc := range append(append([]string{"README.md"}, skills...), workflows...) {
		check(doc)
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "perfbench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			check(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
