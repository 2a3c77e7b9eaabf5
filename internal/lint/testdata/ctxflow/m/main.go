// Command m: package main keeps the right to mint roots.
package main

import "context"

func run(ctx context.Context) {
	run(context.Background()) // package main is exempt
}
