package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Annotation is one //jm: marker comment. The analyzers use them in
// two directions: required declarations (//jm:horizon,
// //jm:wallclock) that must be present at certain call sites, and
// suppressions (//jm:maporder, //jm:digest-exempt-ok) that silence a
// diagnostic at a site whose determinism has been argued by hand.
// Every annotation takes a free-form rationale after the keyword; an
// empty rationale is rejected by the analyzers that require one.
type Annotation struct {
	Key       string // "horizon", "wallclock", "maporder", ...
	Rationale string
	Line      int
}

// Annotations indexes a file's //jm: comments by the source line they
// govern: the annotation's own line and the next source line, so both
// trailing and preceding placement work:
//
//	m.AddCycleHook(fn, hz) //jm:horizon next scheduled fault
//
//	//jm:horizon next sample cycle
//	m.AddCycleHook(fn, hz)
type Annotations map[int][]Annotation

// parseAnnotations extracts the //jm: markers of one file.
func parseAnnotations(fset *token.FileSet, f *ast.File) Annotations {
	notes := make(Annotations)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//jm:")
			if !ok {
				continue
			}
			key, rationale, _ := strings.Cut(strings.TrimSpace(text), " ")
			pos := fset.Position(c.Pos())
			a := Annotation{Key: key, Rationale: strings.TrimSpace(rationale), Line: pos.Line}
			// An annotation governs its own line (trailing placement)
			// and the next line (preceding placement), like nolint.
			notes[pos.Line] = append(notes[pos.Line], a)
			notes[pos.Line+1] = append(notes[pos.Line+1], a)
		}
	}
	return notes
}

// Has reports whether line carries an annotation with the key (and a
// non-empty rationale when requireRationale is set).
func (a Annotations) Has(line int, key string, requireRationale bool) bool {
	for _, n := range a[line] {
		if n.Key == key && (!requireRationale || n.Rationale != "") {
			return true
		}
	}
	return false
}

// find returns the first annotation with key on line.
func (a Annotations) find(line int, key string) (Annotation, bool) {
	for _, n := range a[line] {
		if n.Key == key {
			return n, true
		}
	}
	return Annotation{}, false
}
