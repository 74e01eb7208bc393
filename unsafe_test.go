//go:build !race

// The race build skips this file with configfields_test.go, whose
// directory walk it shares; a data race cannot change what a file imports.

package hybrid_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// unsafeAllowed lists the non-test files that may import unsafe, each with
// its reason.
var unsafeAllowed = map[string]string{
	"internal/httpd/http.go": "HeadBuffer returns a head as a string view of its buffer (unsafe.String), " +
		"so neither side of a keep-alive request copies its head",
}

// TestUnsafeConfined fails if a non-test Go file outside unsafeAllowed
// imports unsafe: the one place the program reads bytes as a string
// without copying them stays the one place whose lifetime rules
// (DESIGN.md "Parse/render without garbage") are written down and tested.
func TestUnsafeConfined(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := moduleDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			rel = filepath.ToSlash(rel)
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p != "unsafe" {
					continue
				}
				if _, ok := unsafeAllowed[rel]; !ok {
					t.Errorf("%s imports unsafe; only the files unsafeAllowed lists may", rel)
				}
				seen[rel] = true
			}
		}
	}
	for rel := range unsafeAllowed {
		if !seen[rel] {
			t.Errorf("%s no longer imports unsafe: drop its unsafeAllowed row", rel)
		}
	}
}
