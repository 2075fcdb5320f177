package cluster

// FilledSubset is filledSubset for the external contract test: the
// matrix a sweep's fan-out fills over the objects idx of o.
var FilledSubset = filledSubset
