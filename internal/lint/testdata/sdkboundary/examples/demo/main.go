// Command demo is a clean consumer: SDK only.
package main

import "repro/paq"
