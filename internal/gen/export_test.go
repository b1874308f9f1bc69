package gen

// EmitFault exposes the emit fault-injection hook to the external
// gen_test package, whose tests run backends that import this package.
var EmitFault = &testEmitFault
