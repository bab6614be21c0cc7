// Package des stands in for the DES engine: scheduling on it is one of
// the order-sensitive primitives the map-range rule knows by name.
package des

// Engine is a stub event queue.
type Engine struct{ queue []func() }

// After schedules fn.
func (e *Engine) After(delay int64, fn func()) { e.queue = append(e.queue, fn) }

// Pending reads the queue length; it schedules nothing.
func (e *Engine) Pending() int { return len(e.queue) }

// Action is a stub event action.
type Action interface{ Fire() }

// Schedule queues a at absolute time at, ties broken by key.
func (e *Engine) Schedule(at int64, key uint64, a Action) { e.queue = append(e.queue, a.Fire) }
