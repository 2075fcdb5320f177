package store

// HasStringIndex reports whether c holds a value -> code map: Append's
// cache or the string predicates' lookup.
func HasStringIndex(c *StringColumn) bool { return c.index != nil || c.lookup.m.Load() != nil }
