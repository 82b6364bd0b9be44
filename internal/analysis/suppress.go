package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Suppression syntax:
//
//	//ml4db:allow <analyzer> "reason"
//
// The comment suppresses diagnostics of the named analyzer on the line it
// occupies, or — when it stands alone — on the line directly below it. The
// reason string is mandatory: a suppression is a reviewed decision, and the
// reason is where the review lives. A malformed allow comment (missing
// analyzer or reason) is itself reported as a diagnostic so it cannot
// silently fail to suppress.

var allowRe = regexp.MustCompile(`^//ml4db:allow\s+([a-z]+)\s+"([^"]+)"\s*$`)

type suppression struct {
	analyzer string
	reason   string
	// pos is where the comment itself sits (reported by the
	// unused-suppression check).
	pos token.Position
	// trailing marks a comment that follows code on its line: it covers
	// that line only, where a standalone one also covers the next.
	trailing bool
	// used is set once the entry suppresses at least one diagnostic.
	used bool
}

type suppressionSet struct {
	entries   []suppression
	malformed []Diagnostic
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressionSet {
	var set suppressionSet
	for _, f := range files {
		var codeLines map[int]bool // lines holding a token, built on first allow
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimRight(c.Text, " \t")
				if !strings.HasPrefix(text, "//ml4db:allow") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := allowRe.FindStringSubmatch(text)
				if m == nil {
					set.malformed = append(set.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "suppression",
						Message:  `malformed //ml4db:allow comment: want //ml4db:allow <analyzer> "reason"`,
					})
					continue
				}
				if _, err := ByName([]string{m[1]}); err != nil {
					set.malformed = append(set.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "suppression",
						Message:  "//ml4db:allow names unknown analyzer " + m[1],
					})
					continue
				}
				if codeLines == nil {
					codeLines = tokenLines(fset, f)
				}
				set.entries = append(set.entries, suppression{
					analyzer: m[1],
					reason:   m[2],
					pos:      pos,
					trailing: codeLines[pos.Line],
				})
			}
		}
	}
	return set
}

// tokenLines returns the lines of f on which some syntax node starts or ends:
// a line holding code has at least one, a line holding only comments none.
func tokenLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if _, isComment := n.(*ast.CommentGroup); n == nil || isComment {
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// match finds the entry suppressing d, returning its index.
func (s suppressionSet) match(d Diagnostic) (int, bool) {
	for i, e := range s.entries {
		if e.analyzer == d.Analyzer && e.pos.Filename == d.Pos.Filename &&
			(d.Pos.Line == e.pos.Line || d.Pos.Line == e.pos.Line+1 && !e.trailing) {
			return i, true
		}
	}
	return 0, false
}
