package transport

// Call runs fn on h's executor and waits for it, so a test can drive the
// core.Env methods under their serialization contract.
func (h *Host) Call(fn func()) { h.call(fn) }
