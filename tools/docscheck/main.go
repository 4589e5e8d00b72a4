// Command docscheck enforces docs consistency:
//
//   - every "DESIGN.md §N[.M]" or "DESIGN.md AN" reference in a Go source
//     file must resolve to a section (or ablation id) that actually appears
//     in a DESIGN.md heading (comments wrap across lines, so the checker
//     joins comment continuations before matching);
//
//   - each README section in the readmeSections table ("Cluster
//     quickstart", "Fleet quickstart", "Sparsity", "Benchmark") keeps its
//     contract with the code: it exists, mentions what it must (the
//     launcher, the committed report), shows its command's core flags —
//     which that command must really define — and shows no -flag that the
//     main.go files it may cite leave undefined; the files it cites exist;
//
//   - the README's "Backends" table must list exactly the names the
//     backend registry exposes, at each precision: every backend.Names()
//     entry needs a row with a ✓ in the f64 column, every Names32() entry
//     a ✓ in the f32 column, and the table may not claim a backend or a
//     precision the registry does not provide (checked bidirectionally by
//     importing the registry itself, so a Register call and the docs
//     cannot drift);
//
//   - every streambrain_* metric name DESIGN.md or README.md mentions
//     must appear as a quoted string literal in some Go source file
//     (exposition suffixes _bucket/_sum/_count resolve to their base
//     family), so the documented metric catalogue (DESIGN.md §11) cannot
//     drift from the names the code actually registers.
//
//     go run ./tools/docscheck          # checks the repository root
//     go run ./tools/docscheck -root .. # or any tree
//
// Exit status 1 lists every dangling reference with file:line. CI runs this
// so a renumbered DESIGN.md cannot silently orphan code comments, and a
// renamed launcher flag cannot silently rot the cluster documentation.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"streambrain/internal/backend"
)

var (
	// headingToken finds section ids (§5 or §5.1) and ablation ids (A3)
	// inside DESIGN.md heading lines.
	headingToken = regexp.MustCompile(`§[0-9]+(?:\.[0-9]+)*|\bA[0-9]+\b`)
	// commentJoin collapses a line-wrapped Go comment ("...(DESIGN.md\n//
	// §1)...") into one logical line before reference matching.
	commentJoin = regexp.MustCompile(`\n\s*//\s?`)
	// reference matches "DESIGN.md" optionally followed by one section or
	// ablation token. Bare references ("see DESIGN.md") are always valid.
	reference = regexp.MustCompile(`DESIGN\.md(?:[\s,:]*(§[0-9]+(?:\.[0-9]+)*|A[0-9]+))?`)
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	sections, err := designSections(filepath.Join(*root, "DESIGN.md"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	var problems []string
	codeMetrics := map[string]bool{}
	err = filepath.WalkDir(*root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and nested module caches.
			if name := d.Name(); name == ".git" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		problems = append(problems, checkFile(path, string(raw), sections)...)
		for _, m := range metricLit.FindAllStringSubmatch(string(raw), -1) {
			codeMetrics[m[1]] = true
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	problems = append(problems, checkReadmeSections(*root)...)
	problems = append(problems, checkBackendDocs(*root)...)
	problems = append(problems, checkMetricDocs(*root, codeMetrics)...)
	problems = append(problems, checkWireDocs(*root)...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d docs-consistency problem(s); DESIGN.md sections present: %s\n",
			len(problems), strings.Join(sorted(sections), " "))
		os.Exit(1)
	}
	fmt.Println("docscheck: all DESIGN.md references resolve and the README sections match the code")
}

// designSections collects the set of valid section and ablation tokens from
// DESIGN.md headings.
func designSections(path string) (map[string]bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cannot read %s (code comments cite it): %w", path, err)
	}
	sections := make(map[string]bool)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		for _, tok := range headingToken.FindAllString(line, -1) {
			sections[tok] = true
		}
	}
	if len(sections) == 0 {
		return nil, fmt.Errorf("%s has no §-numbered headings", path)
	}
	return sections, nil
}

// checkFile returns one problem line per dangling reference in src.
func checkFile(path, src string, sections map[string]bool) []string {
	joined := commentJoin.ReplaceAllString(src, " ")
	var problems []string
	for _, m := range reference.FindAllStringSubmatchIndex(joined, -1) {
		if m[2] < 0 {
			continue // bare "DESIGN.md", no section claimed
		}
		tok := joined[m[2]:m[3]]
		if sections[tok] {
			continue
		}
		line := 1 + strings.Count(src[:sourceOffset(src, joined, m[0])], "\n")
		problems = append(problems,
			fmt.Sprintf("%s:%d: references DESIGN.md %s, which has no such heading", path, line, tok))
	}
	return problems
}

// sourceOffset maps an offset in the comment-joined text back to the
// original source, by counting how many joins happened before it.
func sourceOffset(src, joined string, off int) int {
	// Each join replaced a `\n\s*//\s?` run with one space; walk both
	// strings in lockstep.
	i, j := 0, 0
	for j < off && i < len(src) {
		if loc := commentJoin.FindStringIndex(src[i:]); loc != nil && loc[0] == 0 {
			i += loc[1]
			j++ // the single space the join left behind
			continue
		}
		i++
		j++
	}
	return i
}

var (
	// flagDef matches a flag definition in a command's main.go:
	// flag.Int("ranks", ...), flag.IntVar(&o.ranks, "ranks", ...) or the
	// same on a FlagSet named fs. The method-name class includes digits so
	// Float64/Int64 match; New* (flag.NewFlagSet) is skipped by the caller.
	flagDef = regexp.MustCompile(`\b(?:flag|fs)\.([A-Za-z][A-Za-z0-9]*)\((?:&[\w.]+,\s*)?"([a-z][a-z0-9-]*)"`)
	// flagUse matches a -flag token shown in README prose or code blocks.
	flagUse = regexp.MustCompile("(?:^|[\\s`(])-([a-z][a-z0-9-]*)")
)

// readmeSection is one README section's contract with the code: the section
// exists, mentions every string in mentions, and shows every core flag,
// each of which command's main.go really defines; every other -flag it
// shows is defined by some main.go matching flagsIn; and every file in
// files exists, so a report the section cites is committed.
type readmeSection struct {
	heading  string
	mentions []string
	command  string   // directory of the main.go defining the core flags
	core     []string // flags the section must show
	flagsIn  []string // globs of the main.go files a shown flag may come from
	files    []string // paths the section cites that must exist
}

// cmdFlags and cmdToolFlags are the flag sources of the sections: the
// commands, plus the tools for a section that also shows a tool's flags.
var (
	cmdFlags     = []string{"cmd/*/main.go"}
	cmdToolFlags = []string{"cmd/*/main.go", "tools/*/main.go"}
)

// readmeSections are the README sections checked against the code: the
// distributed launcher, the serving fleet (DESIGN.md §13), structural
// sparsity (DESIGN.md §15) and the repository benchmark.
var readmeSections = []readmeSection{
	{heading: "## Cluster quickstart",
		mentions: []string{"streambrain-dist", "BENCH_scaling.json"},
		command:  "cmd/streambrain-dist", core: []string{"ranks", "transport", "epochs"},
		flagsIn: cmdFlags},
	{heading: "## Fleet quickstart",
		mentions: []string{"streambrain-router", "BENCH_fleet.json"},
		command:  "cmd/streambrain-router", core: []string{"replica", "pick", "max-inflight"},
		flagsIn: cmdFlags},
	{heading: "## Sparsity",
		mentions: []string{"BENCH_sparse.json", "benchgate"},
		command:  "cmd/streambrain", core: []string{"sparsity", "sparse-compute"},
		flagsIn: cmdToolFlags, files: []string{"BENCH_sparse.json"}},
	{heading: "## Benchmark",
		mentions: []string{"benchmark/README.md", "BENCHMARK.json"},
		command:  "benchmark", core: []string{"runs", "compare"},
		flagsIn: []string{"benchmark/main.go"}, files: []string{"benchmark/README.md", "BENCHMARK.json"}},
}

// checkReadmeSections walks readmeSections against the README under root.
func checkReadmeSections(root string) []string {
	readmePath := filepath.Join(root, "README.md")
	raw, err := os.ReadFile(readmePath)
	if err != nil {
		return []string{fmt.Sprintf("%s: cannot read (its sections are checked): %v", readmePath, err)}
	}
	var problems []string
	for _, rs := range readmeSections {
		problems = append(problems, rs.check(root, readmePath, string(raw))...)
	}
	return problems
}

// check returns one problem line per broken clause of the contract.
func (rs readmeSection) check(root, readmePath, readme string) []string {
	name := strings.TrimPrefix(rs.heading, "## ")
	section := markdownSection(readme, rs.heading)
	if section == "" {
		return []string{fmt.Sprintf("%s: missing a %q section", readmePath, rs.heading)}
	}
	var problems []string
	for _, must := range rs.mentions {
		if !strings.Contains(section, must) {
			problems = append(problems,
				fmt.Sprintf("%s: %s never mentions %s", readmePath, name, must))
		}
	}
	for _, f := range rs.files {
		if _, err := os.Stat(filepath.Join(root, f)); err != nil {
			problems = append(problems, fmt.Sprintf(
				"%s: %s cites %s, which is not committed", readmePath, name, f))
		}
	}
	coreFlags, err := definedFlags(filepath.Join(root, rs.command, "main.go"))
	if err != nil {
		return append(problems, fmt.Sprintf("docscheck: %v", err))
	}
	allFlags := map[string]bool{}
	for _, glob := range rs.flagsIn {
		paths, _ := filepath.Glob(filepath.Join(root, glob))
		for _, path := range paths {
			fs, err := definedFlags(path)
			if err != nil {
				return append(problems, fmt.Sprintf("docscheck: %v", err))
			}
			for f := range fs {
				allFlags[f] = true
			}
		}
	}
	for _, f := range rs.core {
		if !coreFlags[f] {
			problems = append(problems,
				fmt.Sprintf("%s: core flag -%s is not defined", rs.command, f))
		}
		if !strings.Contains(section, "-"+f) {
			problems = append(problems,
				fmt.Sprintf("%s: %s never shows -%s", readmePath, name, f))
		}
	}
	for _, m := range flagUse.FindAllStringSubmatch(section, -1) {
		if f := m[1]; !allFlags[f] {
			problems = append(problems, fmt.Sprintf(
				"%s: %s shows -%s, which no main.go in %s defines",
				readmePath, name, f, strings.Join(rs.flagsIn, " ")))
		}
	}
	return problems
}

// backendRow matches one body row of the README "Backends" table and
// captures the backend name plus the f64 and f32 columns.
var backendRow = regexp.MustCompile("(?m)^\\|\\s*`([a-z0-9]+)`\\s*\\|([^|]*)\\|([^|]*)\\|")

// checkBackendDocs enforces the backend-registry docs (DESIGN.md §14): the
// README's "Backends" table must list exactly the names backend.Names()
// exposes, with a ✓ in the f32 column exactly for the backend.Names32()
// entries — checked bidirectionally against the imported registry, so a
// Register call and the table cannot drift in either direction.
func checkBackendDocs(root string) []string {
	readmePath := filepath.Join(root, "README.md")
	raw, err := os.ReadFile(readmePath)
	if err != nil {
		return []string{fmt.Sprintf("%s: cannot read (the Backends table is checked): %v", readmePath, err)}
	}
	section := markdownSection(string(raw), "## Backends")
	if section == "" {
		return []string{fmt.Sprintf("%s: missing a \"## Backends\" section", readmePath)}
	}
	doc64 := map[string]bool{}
	doc32 := map[string]bool{}
	for _, m := range backendRow.FindAllStringSubmatch(section, -1) {
		name := m[1]
		if strings.Contains(m[2], "✓") {
			doc64[name] = true
		}
		if strings.Contains(m[3], "✓") {
			doc32[name] = true
		}
	}
	var problems []string
	reg64 := map[string]bool{}
	for _, name := range backend.Names() {
		reg64[name] = true
		if !doc64[name] {
			problems = append(problems, fmt.Sprintf(
				"%s: Backends table has no f64 row for registered backend `%s`", readmePath, name))
		}
	}
	reg32 := map[string]bool{}
	for _, name := range backend.Names32() {
		reg32[name] = true
		if !doc32[name] {
			problems = append(problems, fmt.Sprintf(
				"%s: Backends table does not mark registered f32 backend `%s`", readmePath, name))
		}
	}
	for name := range doc64 {
		if !reg64[name] {
			problems = append(problems, fmt.Sprintf(
				"%s: Backends table documents `%s` at f64, which backend.Names() does not register",
				readmePath, name))
		}
	}
	for name := range doc32 {
		if !reg32[name] {
			problems = append(problems, fmt.Sprintf(
				"%s: Backends table documents `%s` at f32, which backend.Names32() does not register",
				readmePath, name))
		}
	}
	return problems
}

var (
	// metricLit matches a metric family name registered (or scraped) as a
	// quoted Go string literal.
	metricLit = regexp.MustCompile(`"(streambrain_[a-z0-9_]+)"`)
	// metricMention matches a metric name anywhere in markdown prose.
	metricMention = regexp.MustCompile(`streambrain_[a-z0-9_]+`)
)

// checkMetricDocs verifies every streambrain_* metric name the docs
// mention resolves to a quoted literal somewhere in the Go sources, so the
// DESIGN.md §11 catalogue and the README's Observability section cannot
// name metrics the code no longer (or never) registers. Exposition
// suffixes count as their base family.
func checkMetricDocs(root string, codeMetrics map[string]bool) []string {
	var problems []string
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		path := filepath.Join(root, doc)
		raw, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: cannot read (metric names are checked): %v", path, err))
			continue
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, name := range metricMention.FindAllString(line, -1) {
				base := name
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					base = strings.TrimSuffix(base, suffix)
				}
				if codeMetrics[name] || codeMetrics[base] {
					continue
				}
				problems = append(problems, fmt.Sprintf(
					"%s:%d: documents metric %s, which no Go file registers", path, i+1, name))
			}
		}
	}
	return problems
}

var (
	// wireFieldDef matches the Field* frame-layout constants in the wire
	// package ("FieldRows = \"rows\"").
	wireFieldDef = regexp.MustCompile(`Field[A-Za-z0-9]+\s*=\s*"([a-z_]+)"`)
	// wireFieldUse matches a field name in the README layout tables' first
	// column ("| `rows` | u16 | ..." or "| per row: `class` | ...").
	wireFieldUse = regexp.MustCompile("\\|[^|`]*`([a-z_]+)`\\s*\\|")
	// wireContentType matches the negotiated media type literal in wire.go.
	wireContentType = regexp.MustCompile(`ContentType\s*=\s*"([a-z0-9/._+-]+)"`)
)

// checkWireDocs enforces the binary-protocol docs (DESIGN.md §12): the
// README must carry a "Binary protocol" section whose layout-table field
// names are exactly the Field* constants internal/serve/wire defines, and
// which shows the negotiated Content-Type — so the documented frame layout
// cannot drift from the codec.
func checkWireDocs(root string) []string {
	wirePath := filepath.Join(root, "internal", "serve", "wire", "wire.go")
	raw, err := os.ReadFile(wirePath)
	if err != nil {
		return []string{fmt.Sprintf("%s: cannot read (the README wire docs are checked against it): %v", wirePath, err)}
	}
	fields := map[string]bool{}
	for _, m := range wireFieldDef.FindAllStringSubmatch(string(raw), -1) {
		fields[m[1]] = true
	}
	if len(fields) == 0 {
		return []string{fmt.Sprintf("%s: no Field* frame-layout constants found", wirePath)}
	}
	contentType := ""
	if m := wireContentType.FindStringSubmatch(string(raw)); m != nil {
		contentType = m[1]
	}

	readmePath := filepath.Join(root, "README.md")
	doc, err := os.ReadFile(readmePath)
	if err != nil {
		return []string{fmt.Sprintf("%s: cannot read (binary protocol docs are checked): %v", readmePath, err)}
	}
	section := markdownSection(string(doc), "## Binary protocol")
	if section == "" {
		return []string{fmt.Sprintf("%s: missing a \"## Binary protocol\" section", readmePath)}
	}
	var problems []string
	if contentType != "" && !strings.Contains(section, contentType) {
		problems = append(problems, fmt.Sprintf(
			"%s: Binary protocol never shows the negotiated Content-Type %s", readmePath, contentType))
	}
	documented := map[string]bool{}
	for _, m := range wireFieldUse.FindAllStringSubmatch(section, -1) {
		documented[m[1]] = true
	}
	for f := range fields {
		if !documented[f] {
			problems = append(problems, fmt.Sprintf(
				"%s: Binary protocol layout tables never name frame field `%s` (wire.Field* defines it)",
				readmePath, f))
		}
	}
	for f := range documented {
		if !fields[f] {
			problems = append(problems, fmt.Sprintf(
				"%s: Binary protocol documents frame field `%s`, which internal/serve/wire does not define",
				readmePath, f))
		}
	}
	return problems
}

// markdownSection returns the body of a "## " section up to the next one
// ("" when the heading is absent).
func markdownSection(doc, heading string) string {
	idx := strings.Index(doc, "\n"+heading+"\n")
	if idx < 0 {
		return ""
	}
	body := doc[idx+1+len(heading):]
	if end := strings.Index(body, "\n## "); end >= 0 {
		body = body[:end]
	}
	return body
}

// definedFlags extracts the flag names a command's main.go registers.
func definedFlags(path string) (map[string]bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cannot read %s: %w", path, err)
	}
	flags := map[string]bool{}
	for _, m := range flagDef.FindAllStringSubmatch(string(raw), -1) {
		if !strings.HasPrefix(m[1], "New") {
			flags[m[2]] = true
		}
	}
	return flags, nil
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	// Stable enough for an error message without importing sort for a
	// custom §-aware order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
