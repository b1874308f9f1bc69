package core

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file implements the naming views the paper uses for core
// components and business information entities:
//
//   - the compact dotted entity paths of Figure 1, e.g.
//     "Person.Private.Address (ASCC)";
//   - CCTS-style dictionary entry names (DEN), e.g.
//     "Person. Date Of Birth. Date", used by the registry for search and
//     harmonisation.

// writeWords writes a CamelCase model name as space-separated words:
// "DateofBirth" -> "Dateof Birth", "CodeListAgName" -> "Code List Ag
// Name". Underscores also separate words.
func writeWords(b *strings.Builder, name string) {
	prevLower := false
	for _, r := range name {
		if r < utf8.RuneSelf {
			// ASCII: the unicode classes reduce to byte ranges.
			c := byte(r)
			switch {
			case c == '_':
				b.WriteByte(' ')
				prevLower = false
				continue
			case 'A' <= c && c <= 'Z' && prevLower:
				b.WriteByte(' ')
			}
			b.WriteByte(c)
			prevLower = 'a' <= c && c <= 'z' || '0' <= c && c <= '9'
			continue
		}
		if unicode.IsUpper(r) && prevLower {
			b.WriteByte(' ')
		}
		b.WriteRune(r)
		prevLower = unicode.IsLower(r) || unicode.IsDigit(r)
	}
}

// den builds a dictionary entry name in one builder sized up front: the
// words of each term joined by ". ", then suffix. The size allows one
// inserted space per four bytes of a term, enough for CamelCase words.
func den(suffix string, terms ...string) string {
	n := len(suffix)
	for _, t := range terms {
		n += len(t) + len(t)/4 + len(". ")
	}
	var b strings.Builder
	b.Grow(n)
	for i, t := range terms {
		if i > 0 {
			b.WriteString(". ")
		}
		writeWords(&b, t)
	}
	b.WriteString(suffix)
	return b.String()
}

// DEN returns the CCTS dictionary entry name of the ACC:
// "ObjectClassTerm. Details".
func (a *ACC) DEN() string { return den(". Details", a.Name) }

// DEN returns the CCTS dictionary entry name of the BCC:
// "ObjectClass. Property Term. Representation Term".
func (b *BCC) DEN() string { return den("", b.owner.Name, b.Name, b.Type.Name) }

// DEN returns the CCTS dictionary entry name of the ASCC:
// "ObjectClass. Role. Target Object Class".
func (s *ASCC) DEN() string { return den("", s.owner.Name, s.Role, s.Target.Name) }

// DEN returns the CCTS dictionary entry name of the ABIE:
// "Qualified Object Class. Details".
func (a *ABIE) DEN() string { return den(". Details", a.Name) }

// DEN returns the CCTS dictionary entry name of the BBIE.
func (b *BBIE) DEN() string { return den("", b.owner.Name, b.Name, b.Type.TypeName()) }

// DEN returns the CCTS dictionary entry name of the ASBIE.
func (s *ASBIE) DEN() string { return den("", s.owner.Name, s.Role, s.Target.Name) }

// DEN returns the CCTS dictionary entry name of the CDT:
// "Name. Type".
func (d *CDT) DEN() string { return den(". Type", d.Name) }

// DEN returns the CCTS dictionary entry name of the QDT:
// "Qualified Name. Type".
func (d *QDT) DEN() string { return den(". Type", d.Name) }

// EntitySet returns the flattened set of core components the ACC results
// in, in the notation of the paper's Section 2.1: "Person (ACC),
// Person.DateofBirth (BCC), Person.FirstName (BCC),
// Person.Private.Address (ASCC), Person.Work.Address (ASCC)".
func (a *ACC) EntitySet() []string {
	out := []string{a.Name + " (ACC)"}
	for _, b := range a.BCCs {
		out = append(out, a.Name+"."+b.Name+" (BCC)")
	}
	for _, s := range a.ASCCs {
		out = append(out, a.Name+"."+s.Role+"."+s.Target.Name+" (ASCC)")
	}
	return out
}

// EntitySet returns the flattened set of business information entities
// the ABIE results in, in the notation of the paper's Section 2.2:
// "US_Person (ABIE), US_Person.DateofBirth (BBIE), ...,
// US_Person.US_Private.US_Address (ASBIE)".
func (a *ABIE) EntitySet() []string {
	out := []string{a.Name + " (ABIE)"}
	for _, b := range a.BBIEs {
		out = append(out, a.Name+"."+b.Name+" (BBIE)")
	}
	for _, s := range a.ASBIEs {
		out = append(out, a.Name+"."+s.Role+"."+s.Target.Name+" (ASBIE)")
	}
	return out
}
