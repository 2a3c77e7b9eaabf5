// Package workload is exempt from the no-panic contract.
package workload

// Do may panic: generators fed by program constants keep the option.
func Do() {
	panic("fine here")
}
