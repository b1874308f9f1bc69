package core

// ModelIndex is the output of the generator pipeline's Resolve phase: a
// set of per-library symbol tables plus memoized NDR naming artifacts
// (schema file names, namespace URNs, element and "...Type" names,
// dictionary entry names). One index is built per model and then shared
// by the schema generator, the validation engine, the instance-sample
// generator and the command-line tools, replacing the ad-hoc name
// recomputation each of them used to do at every use site.
//
// Invariants: a ModelIndex is immutable after construction — every map
// is fully populated by NewModelIndex/IndexLibraries and never written
// afterwards — so it is safe for any number of concurrent readers. The
// index reflects the model at resolve time; mutating the model
// afterwards requires building a fresh index.
type ModelIndex struct {
	libs      []*Library
	lib       map[*Library]*LibraryIndex
	libByName map[string]*Library
	// names memoizes XML element names keyed by element pointer
	// (*ABIE root/global elements, *BBIE, *SupplementaryComponent); for
	// *ASBIE the compound role+target element name.
	names map[any]string
	// types memoizes the "...Type" names keyed by element pointer
	// (*ABIE, *CDT, *QDT, *ENUM).
	types map[any]string
	// dens memoizes dictionary entry names keyed by element pointer.
	dens map[any]string
}

// LibraryIndex is the symbol table of one library: constant-time lookup
// of its elements by name, the derived schema file name and the target
// namespace, plus the duplicate element names the validation engine
// reports.
type LibraryIndex struct {
	// Lib is the indexed library.
	Lib *Library
	// File is the memoized schema file name (SchemaFileName).
	File string
	// Namespace is the target namespace (the baseURN tagged value).
	Namespace string

	accs  map[string]*ACC
	abies map[string]*ABIE
	cdts  map[string]*CDT
	qdts  map[string]*QDT
	enums map[string]*ENUM
	prims map[string]*PRIM
	// dups lists every element name occurrence beyond the first, in
	// declaration order (ACCs, ABIEs, CDTs, QDTs, ENUMs, PRIMs).
	dups []string
}

// DENer is any model element with a dictionary entry name.
type DENer interface{ DEN() string }

// NewModelIndex resolves every library of the model into one shared
// index, its memo maps sized by one counting pass so they never grow.
func NewModelIndex(m *Model) *ModelIndex {
	var libs []*Library
	if m != nil {
		libs = m.Libraries()
	}
	ix := newIndex(libs)
	for _, lib := range libs {
		ix.addLibrary(lib)
	}
	return ix
}

// IndexLibraries resolves the given libraries plus everything they
// transitively reference (ASBIE target libraries, data-type libraries,
// enumeration libraries, underlying core-component libraries). It serves
// detached libraries that have no owning model; libraries attached to a
// model are usually indexed whole via NewModelIndex.
func IndexLibraries(seeds ...*Library) *ModelIndex {
	ix := newIndex(nil)
	var queue []*Library
	enqueue := func(lib *Library) {
		if lib == nil {
			return
		}
		if _, done := ix.lib[lib]; done {
			return
		}
		ix.addLibrary(lib)
		queue = append(queue, lib)
	}
	for _, lib := range seeds {
		enqueue(lib)
	}
	for len(queue) > 0 {
		lib := queue[0]
		queue = queue[1:]
		for _, abie := range lib.ABIEs {
			if abie.BasedOn != nil {
				enqueue(abie.BasedOn.Library())
			}
			for _, bbie := range abie.BBIEs {
				if bbie.Type != nil {
					enqueue(bbie.Type.DataTypeLibrary())
				}
			}
			for _, asbie := range abie.ASBIEs {
				if asbie.Target != nil {
					enqueue(asbie.Target.Library())
				}
			}
		}
		for _, cdt := range lib.CDTs {
			enqueue(componentTypeLibrary(cdt.Content.Type))
			for i := range cdt.Sups {
				enqueue(componentTypeLibrary(cdt.Sups[i].Type))
			}
		}
		for _, qdt := range lib.QDTs {
			if qdt.BasedOn != nil {
				enqueue(qdt.BasedOn.DataTypeLibrary())
			}
			enqueue(componentTypeLibrary(qdt.Content.Type))
			for i := range qdt.Sups {
				enqueue(componentTypeLibrary(qdt.Sups[i].Type))
			}
		}
	}
	return ix
}

func componentTypeLibrary(t ComponentType) *Library {
	switch c := t.(type) {
	case *ENUM:
		return c.Library()
	case *PRIM:
		return c.Library()
	}
	return nil
}

// newIndex creates an empty index whose maps hold the libraries libs
// and their elements without growing.
func newIndex(libs []*Library) *ModelIndex {
	var names, types, dens int
	for _, lib := range libs {
		for _, acc := range lib.ACCs {
			dens += 1 + len(acc.BCCs) + len(acc.ASCCs)
		}
		for _, abie := range lib.ABIEs {
			members := 1 + len(abie.BBIEs) + len(abie.ASBIEs)
			names += members
			dens += members
		}
		for _, cdt := range lib.CDTs {
			names += len(cdt.Sups)
		}
		for _, qdt := range lib.QDTs {
			names += len(qdt.Sups)
		}
		types += len(lib.ABIEs) + len(lib.CDTs) + len(lib.QDTs) + len(lib.ENUMs)
		dens += len(lib.CDTs) + len(lib.QDTs)
	}
	return &ModelIndex{
		lib:       make(map[*Library]*LibraryIndex, len(libs)),
		libByName: make(map[string]*Library, len(libs)),
		names:     make(map[any]string, names),
		types:     make(map[any]string, types),
		dens:      make(map[any]string, dens),
	}
}

// addLibrary interns one library's symbol table and memoizes the naming
// artifacts of every element. Only called during construction.
func (ix *ModelIndex) addLibrary(lib *Library) {
	if _, done := ix.lib[lib]; done {
		return
	}
	li := &LibraryIndex{
		Lib:       lib,
		File:      SchemaFileName(lib),
		Namespace: lib.BaseURN,
		accs:      make(map[string]*ACC, len(lib.ACCs)),
		abies:     make(map[string]*ABIE, len(lib.ABIEs)),
		cdts:      make(map[string]*CDT, len(lib.CDTs)),
		qdts:      make(map[string]*QDT, len(lib.QDTs)),
		enums:     make(map[string]*ENUM, len(lib.ENUMs)),
		prims:     make(map[string]*PRIM, len(lib.PRIMs)),
	}
	seen := make(map[string]bool, lib.ElementCount())
	intern := func(name string) bool {
		dup := seen[name]
		if dup {
			li.dups = append(li.dups, name)
		}
		seen[name] = true
		return dup
	}
	for _, acc := range lib.ACCs {
		if !intern(acc.Name) {
			li.accs[acc.Name] = acc
		}
		ix.dens[acc] = acc.DEN()
		// DEN memoization is skipped for elements with missing members
		// (nil type or association target, detached owner): the
		// validation engine indexes deliberately malformed models to
		// diagnose them, and the accessor fallbacks are never reached
		// for such elements.
		for _, bcc := range acc.BCCs {
			if bcc.owner != nil && bcc.Type != nil {
				ix.dens[bcc] = bcc.DEN()
			}
		}
		for _, ascc := range acc.ASCCs {
			if ascc.owner != nil && ascc.Target != nil {
				ix.dens[ascc] = ascc.DEN()
			}
		}
	}
	for _, abie := range lib.ABIEs {
		if !intern(abie.Name) {
			li.abies[abie.Name] = abie
		}
		ix.names[abie] = XMLName(abie.Name)
		ix.types[abie] = TypeName(abie.Name)
		ix.dens[abie] = abie.DEN()
		for _, bbie := range abie.BBIEs {
			ix.names[bbie] = XMLName(bbie.Name)
			if bbie.owner != nil && bbie.Type != nil {
				ix.dens[bbie] = bbie.DEN()
			}
		}
		for _, asbie := range abie.ASBIEs {
			if asbie.Target != nil {
				ix.names[asbie] = ASBIEElementName(asbie.Role, asbie.Target.Name)
				if asbie.owner != nil {
					ix.dens[asbie] = asbie.DEN()
				}
			}
		}
	}
	for _, cdt := range lib.CDTs {
		if !intern(cdt.Name) {
			li.cdts[cdt.Name] = cdt
		}
		ix.types[cdt] = TypeName(cdt.Name)
		ix.dens[cdt] = cdt.DEN()
		for i := range cdt.Sups {
			ix.names[&cdt.Sups[i]] = XMLName(cdt.Sups[i].Name)
		}
	}
	for _, qdt := range lib.QDTs {
		if !intern(qdt.Name) {
			li.qdts[qdt.Name] = qdt
		}
		ix.types[qdt] = TypeName(qdt.Name)
		ix.dens[qdt] = qdt.DEN()
		for i := range qdt.Sups {
			ix.names[&qdt.Sups[i]] = XMLName(qdt.Sups[i].Name)
		}
	}
	for _, e := range lib.ENUMs {
		if !intern(e.Name) {
			li.enums[e.Name] = e
		}
		ix.types[e] = TypeName(e.Name)
	}
	for _, p := range lib.PRIMs {
		if !intern(p.Name) {
			li.prims[p.Name] = p
		}
	}
	ix.libs = append(ix.libs, lib)
	ix.lib[lib] = li
	if _, taken := ix.libByName[lib.Name]; !taken {
		ix.libByName[lib.Name] = lib
	}
}

// Libraries returns the indexed libraries in resolve order.
func (ix *ModelIndex) Libraries() []*Library { return ix.libs }

// Library returns the symbol table of the library, or nil when the
// library was not part of the resolve.
func (ix *ModelIndex) Library(lib *Library) *LibraryIndex { return ix.lib[lib] }

// FindLibrary locates an indexed library by name.
func (ix *ModelIndex) FindLibrary(name string) *Library { return ix.libByName[name] }

// SchemaFile returns the memoized schema file name of the library,
// deriving it on the fly for unindexed libraries.
func (ix *ModelIndex) SchemaFile(lib *Library) string {
	if li := ix.lib[lib]; li != nil {
		return li.File
	}
	return SchemaFileName(lib)
}

// Namespace returns the target namespace of the library.
func (ix *ModelIndex) Namespace(lib *Library) string {
	if li := ix.lib[lib]; li != nil {
		return li.Namespace
	}
	return lib.BaseURN
}

// ABIEElementName returns the memoized XML element name of the ABIE
// (used for DOC root elements).
func (ix *ModelIndex) ABIEElementName(a *ABIE) string {
	if n, ok := ix.names[a]; ok {
		return n
	}
	return XMLName(a.Name)
}

// ABIETypeName returns the memoized complexType name of the ABIE.
func (ix *ModelIndex) ABIETypeName(a *ABIE) string {
	if n, ok := ix.types[a]; ok {
		return n
	}
	return TypeName(a.Name)
}

// BBIEElementName returns the memoized XML element name of the BBIE.
func (ix *ModelIndex) BBIEElementName(b *BBIE) string {
	if n, ok := ix.names[b]; ok {
		return n
	}
	return XMLName(b.Name)
}

// ASBIEElementName returns the memoized compound element name of the
// ASBIE (role name + target ABIE name).
func (ix *ModelIndex) ASBIEElementName(s *ASBIE) string {
	if n, ok := ix.names[s]; ok {
		return n
	}
	return ASBIEElementName(s.Role, s.Target.Name)
}

// DataTypeName returns the memoized "...Type" name of a CDT or QDT.
func (ix *ModelIndex) DataTypeName(dt DataType) string {
	if n, ok := ix.types[dt]; ok {
		return n
	}
	return TypeName(dt.TypeName())
}

// ENUMTypeName returns the memoized simpleType name of the enumeration.
func (ix *ModelIndex) ENUMTypeName(e *ENUM) string {
	if n, ok := ix.types[e]; ok {
		return n
	}
	return TypeName(e.Name)
}

// SupAttributeName returns the memoized attribute name of a
// supplementary component.
func (ix *ModelIndex) SupAttributeName(sup *SupplementaryComponent) string {
	if n, ok := ix.names[sup]; ok {
		return n
	}
	return XMLName(sup.Name)
}

// DEN returns the memoized dictionary entry name of any model element,
// deriving it on the fly for unindexed elements. A nil index is allowed
// and always derives.
func (ix *ModelIndex) DEN(v DENer) string {
	if ix != nil {
		if d, ok := ix.dens[v]; ok {
			return d
		}
	}
	return v.DEN()
}

// FindACC looks the ACC up in the library's symbol table.
func (li *LibraryIndex) FindACC(name string) *ACC { return li.accs[name] }

// FindABIE looks the ABIE up in the library's symbol table.
func (li *LibraryIndex) FindABIE(name string) *ABIE { return li.abies[name] }

// FindCDT looks the CDT up in the library's symbol table.
func (li *LibraryIndex) FindCDT(name string) *CDT { return li.cdts[name] }

// FindQDT looks the QDT up in the library's symbol table.
func (li *LibraryIndex) FindQDT(name string) *QDT { return li.qdts[name] }

// FindENUM looks the enumeration up in the library's symbol table.
func (li *LibraryIndex) FindENUM(name string) *ENUM { return li.enums[name] }

// FindPRIM looks the primitive up in the library's symbol table.
func (li *LibraryIndex) FindPRIM(name string) *PRIM { return li.prims[name] }

// Duplicates returns every duplicate element name occurrence (beyond the
// first) in the library, in declaration order; the validation engine
// turns each into a SEM-LIB-4 finding.
func (li *LibraryIndex) Duplicates() []string { return li.dups }
