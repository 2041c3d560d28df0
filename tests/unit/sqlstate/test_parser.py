"""SQL parser."""

import pytest

from repro.apps.sqlapp import tables_of_sql
from repro.common.errors import SqlError, SqlSyntaxError
from repro.sqlstate import ast
from repro.sqlstate.engine import Database
from repro.sqlstate.parser import MAX_EXPR_DEPTH, MAX_JOIN_TABLES, parse, parse_script
from repro.sqlstate.values import SqlNull


class TestCreate:
    def test_create_table(self):
        stmt = parse(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, "
            "score REAL DEFAULT 0, tag TEXT UNIQUE)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.name == "t"
        id_col, name_col, score_col, tag_col = stmt.columns
        assert id_col.primary_key and id_col.declared_type == "INTEGER"
        assert name_col.not_null
        assert isinstance(score_col.default, ast.Literal)
        assert tag_col.unique

    def test_if_not_exists(self):
        assert parse("CREATE TABLE IF NOT EXISTS t (a INTEGER)").if_not_exists

    def test_create_index(self):
        stmt = parse("CREATE UNIQUE INDEX idx ON t (a, b)")
        assert isinstance(stmt, ast.CreateIndex)
        assert stmt.unique and stmt.columns == ("a", "b")

    def test_drop_table(self):
        stmt = parse("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropTable) and stmt.if_exists


class TestInsert:
    def test_basic(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 'x')")
        assert stmt.table == "t" and stmt.columns == ("a", "b")
        assert len(stmt.rows) == 1

    def test_multi_row(self):
        stmt = parse("INSERT INTO t VALUES (1), (2), (3)")
        assert len(stmt.rows) == 3

    def test_parameters_numbered_in_order(self):
        stmt = parse("INSERT INTO t VALUES (?, ?, ?)")
        indices = [expr.index for expr in stmt.rows[0]]
        assert indices == [0, 1, 2]

    def test_explicit_parameter_numbers(self):
        stmt = parse("INSERT INTO t VALUES (?2, ?1)")
        assert [e.index for e in stmt.rows[0]] == [1, 0]


class TestSelect:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.items[0].star
        assert isinstance(stmt.source, ast.TableRef)

    def test_where_order_limit_offset(self):
        stmt = parse(
            "SELECT a, b AS bee FROM t WHERE a > 5 ORDER BY b DESC, a LIMIT 10 OFFSET 2"
        )
        assert stmt.items[1].alias == "bee"
        assert isinstance(stmt.where, ast.Binary) and stmt.where.op == ">"
        assert stmt.order_by[0].descending and not stmt.order_by[1].descending
        assert isinstance(stmt.limit, ast.Literal) and stmt.limit.value == 10
        assert stmt.offset.value == 2

    def test_group_by_having(self):
        stmt = parse("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1")
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.items[1].expr.star

    def test_join_with_on(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.id = b.aid LEFT JOIN c ON b.id = c.bid")
        outer = stmt.source
        assert isinstance(outer, ast.Join) and outer.kind == "LEFT"
        inner = outer.left
        assert isinstance(inner, ast.Join) and inner.kind == "INNER"

    def test_table_aliases(self):
        stmt = parse("SELECT v.a FROM votes v")
        assert stmt.source.alias == "v"

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_expression_select_without_from(self):
        stmt = parse("SELECT 1 + 2 * 3")
        assert stmt.source is None

    def test_table_dot_star(self):
        stmt = parse("SELECT v.* FROM votes v")
        assert stmt.items[0].star and stmt.items[0].star_table == "v"


class TestExpressions:
    def where(self, clause):
        return parse(f"SELECT * FROM t WHERE {clause}").where

    def test_precedence_and_or(self):
        expr = self.where("a = 1 OR b = 2 AND c = 3")
        assert expr.op == "OR"
        assert expr.right.op == "AND"

    def test_precedence_arithmetic(self):
        expr = self.where("a = 1 + 2 * 3")
        add = expr.right
        assert add.op == "+" and add.right.op == "*"

    def test_not(self):
        expr = self.where("NOT a = 1")
        assert isinstance(expr, ast.Unary) and expr.op == "NOT"

    def test_is_null_and_is_not_null(self):
        assert not self.where("a IS NULL").negated
        assert self.where("a IS NOT NULL").negated

    def test_in_list(self):
        expr = self.where("a IN (1, 2, 3)")
        assert isinstance(expr, ast.InList) and len(expr.items) == 3
        assert self.where("a NOT IN (1)").negated

    def test_between(self):
        expr = self.where("a BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between)
        assert self.where("a NOT BETWEEN 1 AND 2").negated

    def test_like(self):
        expr = self.where("name LIKE 'v%'")
        assert expr.op == "LIKE"

    def test_case_expression(self):
        expr = self.where("CASE WHEN a = 1 THEN 'one' ELSE 'other' END = 'one'")
        case = expr.left
        assert isinstance(case, ast.CaseExpr) and case.operand is None

    def test_case_with_operand(self):
        stmt = parse("SELECT CASE a WHEN 1 THEN 'x' END FROM t")
        case = stmt.items[0].expr
        assert case.operand is not None

    def test_function_calls(self):
        stmt = parse("SELECT length(name), coalesce(a, b, 0) FROM t")
        assert stmt.items[0].expr.name == "length"
        assert len(stmt.items[1].expr.args) == 3

    def test_null_literal(self):
        stmt = parse("SELECT NULL")
        assert stmt.items[0].expr.value is SqlNull

    def test_unary_minus(self):
        stmt = parse("SELECT -5")
        assert isinstance(stmt.items[0].expr, ast.Unary)

    def test_string_concat(self):
        expr = self.where("a || b = 'ab'")
        assert expr.left.op == "||"


class TestDml:
    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE id = 5")
        assert isinstance(stmt, ast.Update)
        assert [name for name, _ in stmt.assignments] == ["a", "b"]
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a < 0")
        assert isinstance(stmt, ast.Delete)

    def test_transactions(self):
        assert isinstance(parse("BEGIN"), ast.Begin)
        assert isinstance(parse("BEGIN TRANSACTION"), ast.Begin)
        assert isinstance(parse("COMMIT"), ast.Commit)
        assert isinstance(parse("ROLLBACK"), ast.Rollback)


class TestScripts:
    def test_multiple_statements(self):
        statements = parse_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);")
        assert len(statements) == 2

    def test_parse_rejects_multiple(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT 1; SELECT 2")


@pytest.mark.parametrize(
    "bad",
    [
        "SELECT",
        "SELECT FROM t",
        "INSERT t VALUES (1)",
        "CREATE TABLE (a INTEGER)",
        "UPDATE t a = 1",
        "DELETE t",
        "SELECT * FROM t WHERE",
        "SELECT * FROM t ORDER",
        "CASE WHEN END",
        "FLURB 1",
    ],
)
def test_syntax_errors(bad):
    with pytest.raises(SqlSyntaxError):
        parse(bad)


class TestSubquerySyntax:
    def test_in_select(self):
        stmt = parse("SELECT * FROM t WHERE a IN (SELECT b FROM u)")
        assert isinstance(stmt.where, ast.InSelect)
        assert not stmt.where.negated

    def test_not_in_select(self):
        stmt = parse("SELECT * FROM t WHERE a NOT IN (SELECT b FROM u)")
        assert stmt.where.negated

    def test_scalar_subquery(self):
        stmt = parse("SELECT (SELECT MAX(a) FROM t)")
        assert isinstance(stmt.items[0].expr, ast.ScalarSubquery)

    def test_exists(self):
        stmt = parse("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u)")
        assert isinstance(stmt.where, ast.Exists)
        assert not stmt.where.negated

    def test_not_exists(self):
        stmt = parse("SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u)")
        assert isinstance(stmt.where, ast.Exists)
        assert stmt.where.negated


class TestDdlSyntax:
    def test_alter_add_column(self):
        stmt = parse("ALTER TABLE t ADD COLUMN c TEXT DEFAULT 'x'")
        assert isinstance(stmt, ast.AlterTableAddColumn)
        assert stmt.column.name == "c"

    def test_alter_add_without_column_keyword(self):
        stmt = parse("ALTER TABLE t ADD c INTEGER")
        assert stmt.column.name == "c"

    def test_alter_add_primary_key_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("ALTER TABLE t ADD COLUMN c INTEGER PRIMARY KEY")

    def test_drop_index(self):
        stmt = parse("DROP INDEX IF EXISTS idx")
        assert isinstance(stmt, ast.DropIndex) and stmt.if_exists


# -- expression depth ------------------------------------------------------------
#
# Each shape builds an expression ``depth`` levels deep that evaluates to 1:
# nested parentheses (the parser recurses), and operator chains (the parser
# loops, but the tree, and every pass over it, is ``depth`` high).

DEPTH_SHAPES = {
    "parentheses": lambda depth: "(" * (depth - 1) + "1" + ")" * (depth - 1),
    "plus-chain": lambda depth: "+".join(["1"] * (depth - 1)) + "-" + str(depth - 2),
    "and-chain": lambda depth: " AND ".join(["1"] * depth),
}
TOO_DEEP = f"expression tree is too large (maximum depth {MAX_EXPR_DEPTH})"


def _in_deeper_frames(frames, fn):
    return fn() if frames == 0 else _in_deeper_frames(frames - 1, fn)


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
def test_expression_at_max_depth_runs(shape):
    sql = "SELECT " + DEPTH_SHAPES[shape](MAX_EXPR_DEPTH)
    assert Database().execute(sql).scalar() == 1
    # The verdict does not depend on the caller's stack depth.
    assert _in_deeper_frames(150, lambda: Database().execute(sql).scalar()) == 1


@pytest.mark.parametrize("shape", sorted(DEPTH_SHAPES))
def test_expression_past_max_depth_is_refused(shape):
    sql = "SELECT " + DEPTH_SHAPES[shape](MAX_EXPR_DEPTH + 1)
    with pytest.raises(SqlError) as refused:
        Database().execute(sql)
    assert str(refused.value) == TOO_DEEP
    assert tables_of_sql(sql) == ()


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT " + "(" * 200 + "1" + ")" * 200,
        "SELECT " + "+".join(["1"] * 500),
        "SELECT " + " AND ".join(["1"] * 500),
        "SELECT " + "+".join(["1"] * 1000) + " FROM t",
        "SELECT " + "NOT " * 1000 + "1",
        "SELECT " + "abs(" * 300 + "1" + ")" * 300,
    ],
    ids=["parens-200", "plus-500", "and-500", "plus-1000", "not-1000", "calls-300"],
)
def test_deep_input_is_an_sql_error_not_a_crash(sql):
    with pytest.raises(SqlError, match="expression tree is too large"):
        parse(sql)


# -- join width ------------------------------------------------------------------


def wide_join(tables, joiner=", "):
    return "SELECT count(*) FROM t t0" + "".join(
        f"{joiner}t t{i}" for i in range(1, tables)
    )


def one_row_db():
    # One row: a 64-way cross join of two rows would be 2**64 rows.
    db = Database()
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    return db


@pytest.mark.parametrize("joiner", [", ", " JOIN ", " CROSS JOIN "])
def test_join_of_max_tables_runs(joiner):
    db = one_row_db()
    sql = wide_join(MAX_JOIN_TABLES, joiner)
    assert db.execute(sql).scalar() == 1
    assert _in_deeper_frames(150, lambda: db.execute(sql).scalar()) == 1


@pytest.mark.parametrize("tables", [MAX_JOIN_TABLES + 1, 900])
def test_join_past_max_tables_is_refused(tables):
    sql = wide_join(tables)
    with pytest.raises(SqlError) as refused:
        one_row_db().execute(sql)
    assert str(refused.value) == f"at most {MAX_JOIN_TABLES} tables in a join"
    assert tables_of_sql(sql) == ()
