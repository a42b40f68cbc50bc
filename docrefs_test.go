package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMarkdownNamesExist keeps comments from sending readers to documents
// that do not exist: every *.md name in a Go file outside perfbench/ and
// testdata/ must be a file at the repository root.
func TestMarkdownNamesExist(t *testing.T) {
	mdName := regexp.MustCompile(`[A-Za-z0-9_-]+\.md\b`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "perfbench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, name := range mdName.FindAllString(line, -1) {
				if _, err := os.Stat(name); err != nil {
					t.Errorf("%s:%d names %s, which is not a file at the repository root", path, i+1, name)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
