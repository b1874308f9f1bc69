package ocl

import (
	"fmt"
	"strings"
)

// Object adapts an application model element to OCL navigation.
// internal/profile implements it for UML packages, classes, attributes,
// associations and dependencies.
type Object interface {
	// OCLProperty resolves a property by name. The second result is false
	// when the property does not exist on this object.
	OCLProperty(name string) (Value, bool)
	// OCLTypeName names the object's type for error messages.
	OCLTypeName() string
}

type valueKind int

const (
	kindNull valueKind = iota
	kindBool
	kindInt
	kindString
	kindColl
	kindObject
)

// Value is an OCL runtime value: null, boolean, integer, string,
// collection or model object.
type Value struct {
	kind valueKind
	b    bool
	i    int
	s    string
	coll []Value
	obj  Object
}

// Null returns the OCL undefined value.
func Null() Value { return Value{} }

// Bool wraps a boolean.
func Bool(b bool) Value { return Value{kind: kindBool, b: b} }

// Int wraps an integer.
func Int(i int) Value { return Value{kind: kindInt, i: i} }

// String wraps a string.
func String(s string) Value { return Value{kind: kindString, s: s} }

// Coll wraps a collection.
func Coll(vs ...Value) Value { return Value{kind: kindColl, coll: vs} }

// Obj wraps a model object; a nil object becomes null.
func Obj(o Object) Value {
	if o == nil {
		return Null()
	}
	return Value{kind: kindObject, obj: o}
}

// IsNull reports whether the value is OCL-undefined.
func (v Value) IsNull() bool { return v.kind == kindNull }

// AsBool returns the boolean payload.
func (v Value) AsBool() (bool, bool) { return v.b, v.kind == kindBool }

// AsInt returns the integer payload.
func (v Value) AsInt() (int, bool) { return v.i, v.kind == kindInt }

// AsString returns the string payload.
func (v Value) AsString() (string, bool) { return v.s, v.kind == kindString }

// AsColl returns the collection payload.
func (v Value) AsColl() ([]Value, bool) { return v.coll, v.kind == kindColl }

// AsObject returns the object payload.
func (v Value) AsObject() (Object, bool) { return v.obj, v.kind == kindObject }

// String renders the value for error messages and debugging.
func (v Value) String() string {
	switch v.kind {
	case kindNull:
		return "null"
	case kindBool:
		return fmt.Sprintf("%t", v.b)
	case kindInt:
		return fmt.Sprintf("%d", v.i)
	case kindString:
		return fmt.Sprintf("%q", v.s)
	case kindColl:
		parts := make([]string, len(v.coll))
		for i, e := range v.coll {
			parts[i] = e.String()
		}
		return "Collection{" + strings.Join(parts, ", ") + "}"
	case kindObject:
		return v.obj.OCLTypeName()
	}
	return "?"
}

// Equal implements OCL value equality: structural for collections,
// identity for objects.
func Equal(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case kindNull:
		return true
	case kindBool:
		return a.b == b.b
	case kindInt:
		return a.i == b.i
	case kindString:
		return a.s == b.s
	case kindColl:
		if len(a.coll) != len(b.coll) {
			return false
		}
		for i := range a.coll {
			if !Equal(a.coll[i], b.coll[i]) {
				return false
			}
		}
		return true
	case kindObject:
		return a.obj == b.obj
	}
	return false
}

// env is one level of the evaluation environment: the context object
// plus at most one binding, either a named variable (an iterator or let
// variable) or the object of an anonymous iterator body. Lookups walk
// outward through parent, so entering a scope copies nothing, and an
// iterator rebinds its one scope for each element.
type env struct {
	self   Value
	parent *env
	bound  bool   // false for the root scope, which binds nothing
	name   string // the variable's name; "" binds an implicit object
	value  Value
}

// bind returns a child scope binding name ("" for an implicit object).
func (e *env) bind(name string, v Value) *env {
	return &env{self: e.self, parent: e, bound: true, name: name, value: v}
}

// lookup resolves an identifier: the innermost variable of that name,
// else a property of the innermost implicit object that has it, else a
// property of self.
func (e *env) lookup(name string) (Value, error) {
	for s := e; s != nil; s = s.parent {
		if s.bound && s.name == name {
			return s.value, nil
		}
	}
	for s := e; s != nil; s = s.parent {
		if s.bound && s.name == "" {
			if v, err := navigate(s.value, name, true); err == nil {
				return v, nil
			}
		}
	}
	return navigate(e.self, name, false)
}

// Eval evaluates the expression with self as context object.
func (e *Expression) Eval(self Object) (Value, error) {
	return e.EvalValue(Obj(self))
}

// EvalValue evaluates the expression with an arbitrary value as context.
func (e *Expression) EvalValue(self Value) (Value, error) {
	return eval(e.root, &env{self: self})
}

// EvalBool evaluates a boolean constraint; a non-boolean result is an
// error.
func (e *Expression) EvalBool(self Object) (bool, error) {
	v, err := e.Eval(self)
	if err != nil {
		return false, err
	}
	b, ok := v.AsBool()
	if !ok {
		return false, fmt.Errorf("ocl: expression %q returned %s, want Boolean", e.src, v)
	}
	return b, nil
}

func eval(e expr, en *env) (Value, error) {
	switch n := e.(type) {
	case *literalExpr:
		return n.value, nil
	case *selfExpr:
		return en.self, nil
	case *identExpr:
		return en.lookup(n.name)
	case *propertyExpr:
		target, err := eval(n.target, en)
		if err != nil {
			return Null(), err
		}
		return navigate(target, n.name, false)
	case *callExpr:
		return evalCall(n, en)
	case *arrowExpr:
		return evalArrow(n, en)
	case *iterateExpr:
		return evalIterate(n, en)
	case *unaryExpr:
		return evalUnary(n, en)
	case *binaryExpr:
		return evalBinary(n, en)
	case *letExpr:
		value, err := eval(n.value, en)
		if err != nil {
			return Null(), err
		}
		return eval(n.body, en.bind(n.varName, value))
	case *collectionExpr:
		var out []Value
		for _, el := range n.elements {
			v, err := eval(el, en)
			if err != nil {
				return Null(), err
			}
			if n.dedupe {
				dup := false
				for _, seen := range out {
					if Equal(v, seen) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
			}
			out = append(out, v)
		}
		return Coll(out...), nil
	case *ifExpr:
		cond, err := eval(n.cond, en)
		if err != nil {
			return Null(), err
		}
		b, ok := cond.AsBool()
		if !ok {
			return Null(), fmt.Errorf("ocl: if condition is %s, want Boolean", cond)
		}
		if b {
			return eval(n.thenE, en)
		}
		return eval(n.elseE, en)
	}
	return Null(), fmt.Errorf("ocl: unknown expression node %T", e)
}

// navigate resolves property name on a value. Over collections it
// performs OCL's implicit collect, flattening nested collections.
// strict=true returns an error for unknown properties instead of trying
// fallbacks; it is used for implicit-iterator resolution.
func navigate(target Value, name string, strict bool) (Value, error) {
	switch target.kind {
	case kindNull:
		if strict {
			return Null(), fmt.Errorf("ocl: property %q on null", name)
		}
		return Null(), nil
	case kindObject:
		v, ok := target.obj.OCLProperty(name)
		if !ok {
			return Null(), fmt.Errorf("ocl: %s has no property %q", target.obj.OCLTypeName(), name)
		}
		return v, nil
	case kindColl:
		out := make([]Value, 0, len(target.coll))
		for _, e := range target.coll {
			v, err := navigate(e, name, strict)
			if err != nil {
				return Null(), err
			}
			if inner, ok := v.AsColl(); ok {
				out = append(out, inner...)
			} else if !v.IsNull() {
				out = append(out, v)
			}
		}
		return Coll(out...), nil
	}
	return Null(), fmt.Errorf("ocl: property %q on %s", name, target)
}

func evalCall(n *callExpr, en *env) (Value, error) {
	target, err := eval(n.target, en)
	if err != nil {
		return Null(), err
	}
	args := make([]Value, len(n.args))
	for i, a := range n.args {
		if args[i], err = eval(a, en); err != nil {
			return Null(), err
		}
	}
	switch n.name {
	case "oclIsUndefined":
		return Bool(target.IsNull()), nil
	case "size":
		if s, ok := target.AsString(); ok {
			return Int(len(s)), nil
		}
	case "concat":
		s, ok1 := target.AsString()
		a, ok2 := argString(args, 0)
		if ok1 && ok2 {
			return String(s + a), nil
		}
	case "toUpperCase":
		if s, ok := target.AsString(); ok {
			return String(strings.ToUpper(s)), nil
		}
	case "toLowerCase":
		if s, ok := target.AsString(); ok {
			return String(strings.ToLower(s)), nil
		}
	case "startsWith":
		s, ok1 := target.AsString()
		a, ok2 := argString(args, 0)
		if ok1 && ok2 {
			return Bool(strings.HasPrefix(s, a)), nil
		}
	case "endsWith":
		s, ok1 := target.AsString()
		a, ok2 := argString(args, 0)
		if ok1 && ok2 {
			return Bool(strings.HasSuffix(s, a)), nil
		}
	case "contains":
		s, ok1 := target.AsString()
		a, ok2 := argString(args, 0)
		if ok1 && ok2 {
			return Bool(strings.Contains(s, a)), nil
		}
	case "abs":
		if i, ok := target.AsInt(); ok {
			if i < 0 {
				i = -i
			}
			return Int(i), nil
		}
	}
	return Null(), fmt.Errorf("ocl: unknown operation %s.%s/%d", target, n.name, len(n.args))
}

func argString(args []Value, i int) (string, bool) {
	if i >= len(args) {
		return "", false
	}
	return args[i].AsString()
}

// asCollection applies OCL's single-value-as-set rule for -> operations:
// null becomes the empty collection, a scalar becomes a singleton.
func asCollection(v Value) []Value {
	switch v.kind {
	case kindColl:
		return v.coll
	case kindNull:
		return nil
	default:
		return []Value{v}
	}
}

func evalArrow(n *arrowExpr, en *env) (Value, error) {
	target, err := eval(n.target, en)
	if err != nil {
		return Null(), err
	}
	coll := asCollection(target)
	args := make([]Value, len(n.args))
	for i, a := range n.args {
		if args[i], err = eval(a, en); err != nil {
			return Null(), err
		}
	}
	switch n.name {
	case "size":
		return Int(len(coll)), nil
	case "isEmpty":
		return Bool(len(coll) == 0), nil
	case "notEmpty":
		return Bool(len(coll) > 0), nil
	case "first":
		if len(coll) == 0 {
			return Null(), nil
		}
		return coll[0], nil
	case "last":
		if len(coll) == 0 {
			return Null(), nil
		}
		return coll[len(coll)-1], nil
	case "sum":
		total := 0
		for _, e := range coll {
			i, ok := e.AsInt()
			if !ok {
				return Null(), fmt.Errorf("ocl: sum over non-integer %s", e)
			}
			total += i
		}
		return Int(total), nil
	case "includes":
		if len(args) != 1 {
			return Null(), fmt.Errorf("ocl: includes takes 1 argument")
		}
		for _, e := range coll {
			if Equal(e, args[0]) {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case "excludes":
		if len(args) != 1 {
			return Null(), fmt.Errorf("ocl: excludes takes 1 argument")
		}
		for _, e := range coll {
			if Equal(e, args[0]) {
				return Bool(false), nil
			}
		}
		return Bool(true), nil
	case "count":
		if len(args) != 1 {
			return Null(), fmt.Errorf("ocl: count takes 1 argument")
		}
		c := 0
		for _, e := range coll {
			if Equal(e, args[0]) {
				c++
			}
		}
		return Int(c), nil
	case "union":
		if len(args) != 1 {
			return Null(), fmt.Errorf("ocl: union takes 1 argument")
		}
		other := asCollection(args[0])
		return Coll(append(append([]Value{}, coll...), other...)...), nil
	case "intersection":
		if len(args) != 1 {
			return Null(), fmt.Errorf("ocl: intersection takes 1 argument")
		}
		other := asCollection(args[0])
		var out []Value
		for _, e := range coll {
			for _, o := range other {
				if Equal(e, o) {
					out = append(out, e)
					break
				}
			}
		}
		return Coll(out...), nil
	case "including":
		if len(args) != 1 {
			return Null(), fmt.Errorf("ocl: including takes 1 argument")
		}
		return Coll(append(append([]Value{}, coll...), args[0])...), nil
	case "excluding":
		if len(args) != 1 {
			return Null(), fmt.Errorf("ocl: excluding takes 1 argument")
		}
		var out []Value
		for _, e := range coll {
			if !Equal(e, args[0]) {
				out = append(out, e)
			}
		}
		return Coll(out...), nil
	case "at":
		if len(args) != 1 {
			return Null(), fmt.Errorf("ocl: at takes 1 argument")
		}
		i, ok := args[0].AsInt()
		if !ok || i < 1 || i > len(coll) {
			return Null(), fmt.Errorf("ocl: at(%s) out of range for collection of size %d", args[0], len(coll))
		}
		return coll[i-1], nil
	case "asSet":
		var out []Value
		for _, e := range coll {
			dup := false
			for _, seen := range out {
				if Equal(e, seen) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, e)
			}
		}
		return Coll(out...), nil
	}
	return Null(), fmt.Errorf("ocl: unknown collection operation ->%s", n.name)
}

func evalIterate(n *iterateExpr, en *env) (Value, error) {
	target, err := eval(n.target, en)
	if err != nil {
		return Null(), err
	}
	coll := asCollection(target)

	// One scope serves every element: the body's value never refers to
	// the scope, so rebinding it for the next element is safe.
	child := en.bind(n.varName, Null())
	evalBody := func(elem Value) (Value, error) {
		child.value = elem
		return eval(n.body, child)
	}
	boolBody := func(elem Value) (bool, error) {
		v, err := evalBody(elem)
		if err != nil {
			return false, err
		}
		b, ok := v.AsBool()
		if !ok {
			return false, fmt.Errorf("ocl: %s body returned %s, want Boolean", n.name, v)
		}
		return b, nil
	}

	switch n.name {
	case "select", "reject":
		keepIf := n.name == "select"
		var out []Value
		for _, e := range coll {
			b, err := boolBody(e)
			if err != nil {
				return Null(), err
			}
			if b == keepIf {
				out = append(out, e)
			}
		}
		return Coll(out...), nil
	case "collect":
		var out []Value
		for _, e := range coll {
			v, err := evalBody(e)
			if err != nil {
				return Null(), err
			}
			if inner, ok := v.AsColl(); ok {
				out = append(out, inner...)
			} else if !v.IsNull() {
				out = append(out, v)
			}
		}
		return Coll(out...), nil
	case "exists":
		for _, e := range coll {
			b, err := boolBody(e)
			if err != nil {
				return Null(), err
			}
			if b {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case "forAll":
		for _, e := range coll {
			b, err := boolBody(e)
			if err != nil {
				return Null(), err
			}
			if !b {
				return Bool(false), nil
			}
		}
		return Bool(true), nil
	case "one":
		count := 0
		for _, e := range coll {
			b, err := boolBody(e)
			if err != nil {
				return Null(), err
			}
			if b {
				count++
			}
		}
		return Bool(count == 1), nil
	case "any":
		for _, e := range coll {
			b, err := boolBody(e)
			if err != nil {
				return Null(), err
			}
			if b {
				return e, nil
			}
		}
		return Null(), nil
	}
	return Null(), fmt.Errorf("ocl: unknown iterator operation ->%s", n.name)
}

func evalUnary(n *unaryExpr, en *env) (Value, error) {
	v, err := eval(n.operand, en)
	if err != nil {
		return Null(), err
	}
	switch n.op {
	case "not":
		b, ok := v.AsBool()
		if !ok {
			return Null(), fmt.Errorf("ocl: not applied to %s", v)
		}
		return Bool(!b), nil
	case "-":
		i, ok := v.AsInt()
		if !ok {
			return Null(), fmt.Errorf("ocl: unary minus applied to %s", v)
		}
		return Int(-i), nil
	}
	return Null(), fmt.Errorf("ocl: unknown unary operator %q", n.op)
}

func evalBinary(n *binaryExpr, en *env) (Value, error) {
	left, err := eval(n.left, en)
	if err != nil {
		return Null(), err
	}
	// Short-circuit boolean operators.
	switch n.op {
	case "and", "or", "implies":
		lb, ok := left.AsBool()
		if !ok {
			return Null(), fmt.Errorf("ocl: %s applied to %s", n.op, left)
		}
		switch {
		case n.op == "and" && !lb:
			return Bool(false), nil
		case n.op == "or" && lb:
			return Bool(true), nil
		case n.op == "implies" && !lb:
			return Bool(true), nil
		}
		right, err := eval(n.right, en)
		if err != nil {
			return Null(), err
		}
		rb, ok := right.AsBool()
		if !ok {
			return Null(), fmt.Errorf("ocl: %s applied to %s", n.op, right)
		}
		return Bool(rb), nil
	}

	right, err := eval(n.right, en)
	if err != nil {
		return Null(), err
	}
	switch n.op {
	case "xor":
		lb, ok1 := left.AsBool()
		rb, ok2 := right.AsBool()
		if !ok1 || !ok2 {
			return Null(), fmt.Errorf("ocl: xor applied to %s, %s", left, right)
		}
		return Bool(lb != rb), nil
	case "=":
		return Bool(Equal(left, right)), nil
	case "<>":
		return Bool(!Equal(left, right)), nil
	case "<", "<=", ">", ">=":
		return compare(n.op, left, right)
	case "+":
		if ls, ok := left.AsString(); ok {
			rs, ok := right.AsString()
			if !ok {
				return Null(), fmt.Errorf("ocl: + applied to %s, %s", left, right)
			}
			return String(ls + rs), nil
		}
		fallthrough
	case "-", "*", "/":
		li, ok1 := left.AsInt()
		ri, ok2 := right.AsInt()
		if !ok1 || !ok2 {
			return Null(), fmt.Errorf("ocl: %s applied to %s, %s", n.op, left, right)
		}
		switch n.op {
		case "+":
			return Int(li + ri), nil
		case "-":
			return Int(li - ri), nil
		case "*":
			return Int(li * ri), nil
		case "/":
			if ri == 0 {
				return Null(), fmt.Errorf("ocl: division by zero")
			}
			return Int(li / ri), nil
		}
	}
	return Null(), fmt.Errorf("ocl: unknown binary operator %q", n.op)
}

func compare(op string, left, right Value) (Value, error) {
	var cmp int
	if li, ok := left.AsInt(); ok {
		ri, ok := right.AsInt()
		if !ok {
			return Null(), fmt.Errorf("ocl: %s applied to %s, %s", op, left, right)
		}
		cmp = li - ri
	} else if ls, ok := left.AsString(); ok {
		rs, ok := right.AsString()
		if !ok {
			return Null(), fmt.Errorf("ocl: %s applied to %s, %s", op, left, right)
		}
		cmp = strings.Compare(ls, rs)
	} else {
		return Null(), fmt.Errorf("ocl: %s applied to %s, %s", op, left, right)
	}
	switch op {
	case "<":
		return Bool(cmp < 0), nil
	case "<=":
		return Bool(cmp <= 0), nil
	case ">":
		return Bool(cmp > 0), nil
	case ">=":
		return Bool(cmp >= 0), nil
	}
	return Null(), fmt.Errorf("ocl: unknown comparison %q", op)
}
