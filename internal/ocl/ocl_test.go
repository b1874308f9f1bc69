package ocl

import (
	"testing"
	"testing/quick"
)

// mapObject is a test Object backed by a map.
type mapObject struct {
	typeName string
	props    map[string]Value
}

func (o *mapObject) OCLProperty(name string) (Value, bool) {
	v, ok := o.props[name]
	return v, ok
}

func (o *mapObject) OCLTypeName() string { return o.typeName }

// newCDT builds a test object shaped like a stereotyped CDT class: one
// CON attribute and several SUP attributes.
func newCDT() *mapObject {
	attr := func(name, stereotype string) Value {
		return Obj(&mapObject{typeName: "Attribute", props: map[string]Value{
			"name":       String(name),
			"stereotype": String(stereotype),
		}})
	}
	return &mapObject{typeName: "Class", props: map[string]Value{
		"name":       String("Code"),
		"stereotype": String("CDT"),
		"attributes": Coll(
			attr("Content", "CON"),
			attr("CodeListAgName", "SUP"),
			attr("CodeListName", "SUP"),
			attr("CodeListSchemeURI", "SUP"),
			attr("LanguageIdentifier", "SUP"),
		),
	}}
}

func evalOn(t *testing.T, src string, self Object) Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := e.Eval(self)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestLiteralsAndArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{"1 + 2 * 3", Int(7)},
		{"(1 + 2) * 3", Int(9)},
		{"10 / 3", Int(3)},
		{"10 - 4 - 3", Int(3)},
		{"-5 + 2", Int(-3)},
		{"'a'.concat('b')", String("ab")},
		{"'a' + 'b'", String("ab")},
		{"'Hello'.size()", Int(5)},
		{"'Hello'.toUpperCase()", String("HELLO")},
		{"'Hello'.toLowerCase()", String("hello")},
		{"'Hello'.startsWith('He')", Bool(true)},
		{"'Hello'.endsWith('lo')", Bool(true)},
		{"'Hello'.contains('ell')", Bool(true)},
		{"(-7).abs()", Int(7)},
		{"true and false", Bool(false)},
		{"true or false", Bool(true)},
		{"true xor true", Bool(false)},
		{"not false", Bool(true)},
		{"false implies false", Bool(true)},
		{"true implies false", Bool(false)},
		{"1 < 2", Bool(true)},
		{"2 <= 2", Bool(true)},
		{"3 > 4", Bool(false)},
		{"'a' < 'b'", Bool(true)},
		{"'b' >= 'b'", Bool(true)},
		{"1 = 1", Bool(true)},
		{"1 <> 2", Bool(true)},
		{"'x' = 'x'", Bool(true)},
		{"null.oclIsUndefined()", Bool(true)},
		{"'x'.oclIsUndefined()", Bool(false)},
		{"if 1 < 2 then 'yes' else 'no' endif", String("yes")},
		{"if 1 > 2 then 'yes' else 'no' endif", String("no")},
	}
	for _, c := range cases {
		if got := evalOn(t, c.src, nil); !Equal(got, c.want) {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestNavigationAndIterators(t *testing.T) {
	cdt := newCDT()
	cases := []struct {
		src  string
		want Value
	}{
		{"self.name", String("Code")},
		{"self.stereotype = 'CDT'", Bool(true)},
		{"self.attributes->size()", Int(5)},
		{"self.attributes->isEmpty()", Bool(false)},
		{"self.attributes->notEmpty()", Bool(true)},
		// The profile's canonical CDT constraint: exactly one CON.
		{"self.attributes->select(a | a.stereotype = 'CON')->size() = 1", Bool(true)},
		{"self.attributes->select(a | a.stereotype = 'SUP')->size()", Int(4)},
		{"self.attributes->reject(a | a.stereotype = 'SUP')->size()", Int(1)},
		{"self.attributes->forAll(a | a.stereotype = 'CON' or a.stereotype = 'SUP')", Bool(true)},
		{"self.attributes->exists(a | a.name = 'CodeListName')", Bool(true)},
		{"self.attributes->exists(a | a.name = 'Bogus')", Bool(false)},
		{"self.attributes->one(a | a.stereotype = 'CON')", Bool(true)},
		{"self.attributes->one(a | a.stereotype = 'SUP')", Bool(false)},
		{"self.attributes->any(a | a.stereotype = 'CON').name", String("Content")},
		{"self.attributes->collect(a | a.name)->first()", String("Content")},
		{"self.attributes->collect(a | a.name)->last()", String("LanguageIdentifier")},
		// Implicit collect: .name over the attribute collection.
		{"self.attributes.name->includes('CodeListAgName')", Bool(true)},
		{"self.attributes.name->excludes('Bogus')", Bool(true)},
		{"self.attributes.stereotype->count('SUP')", Int(4)},
		{"self.attributes.stereotype->asSet()->size()", Int(2)},
		// Anonymous iterator bodies resolve against the element.
		{"self.attributes->select(stereotype = 'SUP')->size()", Int(4)},
		{"self.attributes->exists(name = 'Content')", Bool(true)},
		// Implicit self: bare property name.
		{"name", String("Code")},
		{"stereotype = 'CDT'", Bool(true)},
		// Arrow on a scalar treats it as a singleton set.
		{"self.name->size()", Int(1)},
		// Every iterator over the five attributes: each element must see
		// its own binding, not a neighbour's.
		{"self.attributes->select(a | a.name.size() > 12)->collect(a | a.name)", Coll(
			String("CodeListAgName"), String("CodeListSchemeURI"), String("LanguageIdentifier"))},
		{"self.attributes->reject(a | a.name.startsWith('CodeList'))->collect(a | a.name)", Coll(
			String("Content"), String("LanguageIdentifier"))},
		{"self.attributes->collect(a | a.name.size())", Coll(Int(7), Int(14), Int(12), Int(17), Int(18))},
		{"self.attributes->exists(a | a.name = 'LanguageIdentifier')", Bool(true)},
		{"self.attributes->forAll(a | a.name <> 'LanguageIdentifier')", Bool(false)},
		{"self.attributes->one(a | a.name.endsWith('URI'))", Bool(true)},
		{"self.attributes->any(a | a.name.endsWith('tName')).name", String("CodeListName")},
		{"self.attributes->select(name.size() > 12)->collect(name)", Coll(
			String("CodeListAgName"), String("CodeListSchemeURI"), String("LanguageIdentifier"))},
		{"self.attributes->reject(stereotype = 'SUP')->collect(name)", Coll(String("Content"))},
		{"self.attributes->collect(name.size())->sum()", Int(68)},
		{"self.attributes->forAll(name.size() > 6)", Bool(true)},
		{"self.attributes->one(name = 'CodeListName')", Bool(true)},
		{"self.attributes->any(name.size() = 17).name", String("CodeListSchemeURI")},
		// Iterators over integer sequences bind each element in turn.
		{"Sequence{1, 2, 3, 4}->select(i | i > 2)", Coll(Int(3), Int(4))},
		{"Sequence{1, 2, 3, 4}->reject(i | i > 2)", Coll(Int(1), Int(2))},
		{"Sequence{1, 2, 3, 4}->collect(i | i * 10)", Coll(Int(10), Int(20), Int(30), Int(40))},
		{"Sequence{1, 2, 3, 4}->exists(i | i = 4)", Bool(true)},
		{"Sequence{1, 2, 3, 4}->forAll(i | i < 4)", Bool(false)},
		{"Sequence{1, 2, 3, 4}->one(i | i > 3)", Bool(true)},
		{"Sequence{1, 2, 3, 4}->any(i | i > 2)", Int(3)},
		// let inside an iterator body, also over the implicit element
		// and shadowing the iterator variable.
		{"self.attributes->select(a | let s = a.stereotype in s = 'SUP')->size()", Int(4)},
		{"self.attributes->select(let s = stereotype in s = 'CON')->collect(name)", Coll(String("Content"))},
		{"Sequence{1, 2, 3}->collect(i | let i = i * i in i + 1)", Coll(Int(2), Int(5), Int(10))},
		{"Sequence{1, 2, 3}->collect(i | (let j = i * 2 in j) + i)", Coll(Int(3), Int(6), Int(9))},
		{"self.bogusNav", Null()}, // wait: unknown property must error
	}
	for _, c := range cases[:len(cases)-1] {
		if got := evalOn(t, c.src, cdt); !Equal(got, c.want) {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
	// Unknown property is an evaluation error.
	e := MustParse("self.bogusNav")
	if _, err := e.Eval(cdt); err == nil {
		t.Error("navigation to unknown property should fail")
	}
}

func TestArrowOnNullIsEmpty(t *testing.T) {
	obj := &mapObject{typeName: "X", props: map[string]Value{"basedOn": Null()}}
	if got := evalOn(t, "self.basedOn->size()", obj); !Equal(got, Int(0)) {
		t.Errorf("null->size() = %s, want 0", got)
	}
	if got := evalOn(t, "self.basedOn->isEmpty()", obj); !Equal(got, Bool(true)) {
		t.Errorf("null->isEmpty() = %s", got)
	}
	// Navigation through null propagates null (no error).
	if got := evalOn(t, "self.basedOn.name", obj); !got.IsNull() {
		t.Errorf("null.name = %s, want null", got)
	}
}

func TestSumAndCollectFlatten(t *testing.T) {
	inner := func(vals ...Value) Value {
		return Obj(&mapObject{typeName: "Row", props: map[string]Value{"items": Coll(vals...)}})
	}
	obj := &mapObject{typeName: "Table", props: map[string]Value{
		"rows": Coll(inner(Int(1), Int(2)), inner(Int(3))),
	}}
	if got := evalOn(t, "self.rows.items->sum()", obj); !Equal(got, Int(6)) {
		t.Errorf("flattened sum = %s, want 6", got)
	}
	if got := evalOn(t, "self.rows->collect(r | r.items)->size()", obj); !Equal(got, Int(3)) {
		t.Errorf("collect flatten size = %s, want 3", got)
	}
}

func TestEvalBool(t *testing.T) {
	cdt := newCDT()
	e := MustParse("self.attributes->size() = 5")
	ok, err := e.EvalBool(cdt)
	if err != nil || !ok {
		t.Errorf("EvalBool = %v, %v", ok, err)
	}
	notBool := MustParse("self.name")
	if _, err := notBool.EvalBool(cdt); err == nil {
		t.Error("EvalBool on string result should fail")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"1 +",
		"(1 + 2",
		"self.",
		"self->",
		"self.attributes->select(a | )",
		"'unterminated",
		"if true then 1 else 2", // missing endif
		"if true 1 else 2 endif",
		"1 ~ 2",
		"self..name",
		"x,",
		"self.attributes->select a",
		"then",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cdt := newCDT()
	bad := []string{
		"1 and true",
		"true and 1",
		"1 or false",
		"1 xor 2",
		"not 1",
		"-'x'",
		"1 < 'a'",
		"'a' <= 1",
		"1 + 'a'",
		"'a' + 1",
		"1 / 0",
		"self.attributes->sum()",
		"self.attributes->bogusOp()",
		"self.attributes->select(a | a.name)", // non-boolean body
		"self.attributes->includes()",         // missing arg
		"self.attributes->excludes()",         // missing arg
		"self.attributes->count()",            // missing arg
		"'x'.bogusCall()",
		"self.name.concat(1)",
		"if 1 then 2 else 3 endif",
		"true implies 1",
		// Bodies that fail on the second element, after a good first one.
		"Sequence{1, 'x', 3}->select(i | i > 0)",
		"Sequence{1, 'x', 3}->reject(i | i > 0)",
		"Sequence{1, 'x', 3}->collect(i | i + 1)",
		"Sequence{1, 'x', 3}->exists(i | i > 5)",
		"Sequence{1, 'x', 3}->forAll(i | i > 0)",
		"Sequence{1, 'x', 3}->one(i | i > 5)",
		"Sequence{1, 'x', 3}->any(i | i > 5)",
		"self.attributes->forAll(name <> 'CodeListAgName' and bogus)",
	}
	for _, src := range bad {
		e, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q) unexpectedly failed: %v", src, err)
			continue
		}
		if _, err := e.Eval(cdt); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestLetAndCollectionLiterals(t *testing.T) {
	cdt := newCDT()
	cases := []struct {
		src  string
		want Value
	}{
		{"let n = 3 in n * n", Int(9)},
		{"let s = 'ab' in s.concat(s)", String("abab")},
		{"let sups = self.attributes->select(a | a.stereotype = 'SUP') in sups->size()", Int(4)},
		// Nested lets and shadowing.
		{"let x = 1 in let y = x + 1 in x + y", Int(3)},
		{"let x = 1 in let x = 2 in x", Int(2)},
		// Collection literals.
		{"Set{1, 2, 2, 3}->size()", Int(3)},
		{"Sequence{1, 2, 2, 3}->size()", Int(4)},
		{"Bag{1, 2, 2}->size()", Int(3)},
		{"Set{}->isEmpty()", Bool(true)},
		{"Set{'a', 'b'}->includes('a')", Bool(true)},
		{"Sequence{3, 1, 2}->at(2)", Int(1)},
		// Set operations.
		{"Set{1, 2}->union(Set{2, 3})->asSet()->size()", Int(3)},
		{"Sequence{1, 2, 3}->intersection(Sequence{2, 3, 4})->size()", Int(2)},
		{"Sequence{1}->including(2)->size()", Int(2)},
		{"Sequence{1, 2, 1}->excluding(1)->size()", Int(1)},
		// The profile idiom: stereotype membership via a literal set.
		{"Set{'CON', 'SUP'}->includes('CON')", Bool(true)},
		{"self.attributes->forAll(a | Set{'CON', 'SUP'}->includes(a.stereotype))", Bool(true)},
	}
	for _, c := range cases {
		if got := evalOn(t, c.src, cdt); !Equal(got, c.want) {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
	// A plain identifier named Set (no brace) is still an identifier.
	obj := &mapObject{typeName: "X", props: map[string]Value{"Set": Int(7)}}
	if got := evalOn(t, "Set + 1", obj); !Equal(got, Int(8)) {
		t.Errorf("bare Set ident = %s", got)
	}
}

func TestLetAndLiteralErrors(t *testing.T) {
	for _, src := range []string{
		"let = 3 in 1",
		"let x 3 in 1",
		"let x = 3 1",
		"let in = 3 in 1",
		"Set{1,}",
		"Set{1",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	for _, src := range []string{
		"Sequence{1}->at(0)",
		"Sequence{1}->at(5)",
		"Sequence{1}->at('x')",
		"Sequence{1}->union()",
		"Sequence{1}->intersection()",
		"Sequence{1}->including()",
		"Sequence{1}->excluding()",
	} {
		e := MustParse(src)
		if _, err := e.Eval(nil); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Bool(true), "true"},
		{Int(42), "42"},
		{String("hi"), `"hi"`},
		{Coll(Int(1), Int(2)), "Collection{1, 2}"},
		{Obj(&mapObject{typeName: "Class"}), "Class"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestEqualCollections(t *testing.T) {
	a := Coll(Int(1), String("x"))
	b := Coll(Int(1), String("x"))
	if !Equal(a, b) {
		t.Error("structurally equal collections must be Equal")
	}
	if Equal(a, Coll(Int(1))) {
		t.Error("different lengths must differ")
	}
	if Equal(a, Coll(Int(1), String("y"))) {
		t.Error("different elements must differ")
	}
	if Equal(Int(1), String("1")) {
		t.Error("different kinds must differ")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("((")
}

func TestIntLiteralRoundTrip(t *testing.T) {
	f := func(n uint16) bool {
		e, err := Parse(Int(int(n)).String())
		if err != nil {
			return false
		}
		v, err := e.Eval(nil)
		return err == nil && Equal(v, Int(int(n)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeMorganProperty(t *testing.T) {
	// not (a and b) = (not a) or (not b) for all boolean pairs.
	f := func(a, b bool) bool {
		lit := func(v bool) string {
			if v {
				return "true"
			}
			return "false"
		}
		lhs := evalQuick(t, "not ("+lit(a)+" and "+lit(b)+")")
		rhs := evalQuick(t, "(not "+lit(a)+") or (not "+lit(b)+")")
		return Equal(lhs, rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func evalQuick(t *testing.T, src string) Value {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := e.Eval(nil)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestExpressionSource(t *testing.T) {
	src := "self.attributes->size() = 5"
	e := MustParse(src)
	if e.Source() != src || e.String() != src {
		t.Errorf("Source/String = %q, %q", e.Source(), e.String())
	}
}

func TestNestedIterators(t *testing.T) {
	cdt := newCDT()
	// Nested iteration with distinct variables.
	src := "self.attributes->forAll(a | self.attributes->select(b | b.name = a.name)->size() = 1)"
	if got := evalOn(t, src, cdt); !Equal(got, Bool(true)) {
		t.Errorf("unique names check = %s", got)
	}
	if got := evalOn(t, "self.attributes->exists(a | self.attributes->exists(b | a.name < b.name))", cdt); !Equal(got, Bool(true)) {
		t.Errorf("nested exists = %s", got)
	}

	// groups holds three groups; a member matches its group when its
	// name equals the group's label.
	member := func(name string) Value {
		return Obj(&mapObject{typeName: "Member", props: map[string]Value{"name": String(name)}})
	}
	group := func(label string, members ...Value) Value {
		return Obj(&mapObject{typeName: "Group", props: map[string]Value{
			"label": String(label), "members": Coll(members...)}})
	}
	groups := &mapObject{typeName: "Groups", props: map[string]Value{
		"label": String("outer"),
		"groups": Coll(
			group("x", member("x"), member("y"), member("z")),
			group("y", member("z"), member("w"), member("v")),
			group("z", member("a"), member("b"), member("z")),
		),
	}}
	cases := []struct {
		src  string
		want Value
	}{
		// Nested implicit iterators: name resolves on the member, label
		// falls through to the enclosing group, not to self.
		{"self.groups->select(members->exists(name = label))->collect(label)", Coll(String("x"), String("z"))},
		{"self.groups->collect(members->select(name = label)->size())", Coll(Int(1), Int(0), Int(1))},
		{"self.groups->forAll(members->forAll(label <> 'outer'))", Bool(true)},
		// An implicit iterator inside a named one and the reverse.
		{"self.groups->collect(g | g.members->reject(name = g.label)->size())", Coll(Int(2), Int(3), Int(2))},
		{"self.groups->select(members->exists(m | m.name = label))->size()", Int(2)},
		// An inner iterator reusing the outer variable's name shadows it
		// in its body only; the outer binding is intact afterwards.
		{"self.groups->collect(g | g.members->select(g | g.name = 'z')->size())", Coll(Int(1), Int(1), Int(1))},
		{"self.groups->select(g | g.members->exists(g | g.name = 'v') and g.label = 'y')->size()", Int(1)},
		{"Sequence{1, 2, 3}->collect(i | Sequence{10, 20, 30}->select(i | i > 15)->size() + i)", Coll(Int(3), Int(4), Int(5))},
		// Implicit elements stay in scope after a nested iterator ends.
		{"self.groups->select(members->exists(name = 'z') and label <> 'y')->collect(label)", Coll(String("x"), String("z"))},
		{"label", String("outer")},
	}
	for _, c := range cases {
		if got := evalOn(t, c.src, groups); !Equal(got, c.want) {
			t.Errorf("%q = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestStringsWithEscapes(t *testing.T) {
	if got := evalOn(t, `'it\'s'`, nil); !Equal(got, String("it's")) {
		t.Errorf("escape = %s", got)
	}
}
