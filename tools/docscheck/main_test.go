package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFile writes body to root/rel, creating its directory.
func writeFile(t *testing.T, root, rel, body string) {
	t.Helper()
	path := filepath.Join(root, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// sectionFixture writes a tree under a fresh root in which every row of
// readmeSections holds: each command's main.go defines the row's core flags,
// every cited file exists, and README.md has one section per row that shows
// its mentions and core flags. edit rewrites row `broken`'s section text
// before the README is written.
func sectionFixture(t *testing.T, broken int, edit func(section string) string) string {
	t.Helper()
	root := t.TempDir()
	readme := "# fixture\n"
	for i, rs := range readmeSections {
		main := "package main\n\nimport \"flag\"\n\nfunc main() {\n"
		for _, f := range rs.core {
			main += fmt.Sprintf("\tflag.Bool(%q, false, \"\")\n", f)
		}
		writeFile(t, root, filepath.Join(rs.command, "main.go"), main+"}\n")
		for _, f := range rs.files {
			writeFile(t, root, f, "{}\n")
		}
		section := "\n" + rs.heading + "\n\nSee " + strings.Join(rs.mentions, " and ") + ".\n\n"
		for _, f := range rs.core {
			section += "    run -" + f + "\n"
		}
		if i == broken {
			section = edit(section)
		}
		readme += section
	}
	writeFile(t, root, "README.md", readme)
	return root
}

// TestReadmeSections breaks each row's contract one clause at a time on a
// fixture README and expects exactly that clause reported; the unbroken
// fixture and the repository itself report nothing.
func TestReadmeSections(t *testing.T) {
	if got := checkReadmeSections(sectionFixture(t, -1, nil)); len(got) != 0 {
		t.Fatalf("intact fixture: %v", got)
	}
	if got := checkReadmeSections(filepath.Join("..", "..")); len(got) != 0 {
		t.Fatalf("repository README: %v", got)
	}
	for i, rs := range readmeSections {
		name := strings.TrimPrefix(rs.heading, "## ")
		cases := []struct {
			clause string
			edit   func(section string) string
			want   string
		}{
			{"missing section", func(s string) string {
				return strings.Replace(s, rs.heading, "## Renamed", 1)
			}, fmt.Sprintf("missing a %q section", rs.heading)},
			{"missing mention", func(s string) string {
				return strings.ReplaceAll(s, rs.mentions[0], "it")
			}, name + " never mentions " + rs.mentions[0]},
			{"core flag not shown", func(s string) string {
				return strings.Replace(s, "    run -"+rs.core[0]+"\n", "", 1)
			}, name + " never shows -" + rs.core[0]},
			{"undefined flag shown", func(s string) string {
				return s + "    run -no-such-flag\n"
			}, name + " shows -no-such-flag, which no main.go in"},
		}
		for _, c := range cases {
			t.Run(name+"/"+c.clause, func(t *testing.T) {
				got := checkReadmeSections(sectionFixture(t, i, c.edit))
				if len(got) != 1 || !strings.Contains(got[0], c.want) {
					t.Fatalf("problems %q, want exactly one containing %q", got, c.want)
				}
			})
		}
	}
}
