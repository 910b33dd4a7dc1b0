package sqldb

import "context"

// ExecuteOracle exposes the tree-walking oracle (oracle_test.go) to
// the external sqldb_test differential tests.
func (db *Database) ExecuteOracle(ctx context.Context, stmt *SelectStmt) (*Result, error) {
	return db.executeOracle(ctx, stmt)
}
