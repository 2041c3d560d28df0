"""Recursive-descent SQL parser."""

from __future__ import annotations

from typing import Optional

from repro.common.errors import SqlError, SqlSyntaxError
from repro.sqlstate import ast
from repro.sqlstate.tokens import (
    T_BLOB,
    T_EOF,
    T_IDENT,
    T_KEYWORD,
    T_NUMBER,
    T_OP,
    T_PARAM,
    T_STRING,
    Token,
    tokenize,
)
from repro.sqlstate.values import SqlNull

# The deepest expression accepted, in levels: an operator, a function call,
# a subquery and a parenthesised group each nest one level (SQLite's
# SQLITE_MAX_EXPR_DEPTH, 1000 there).  This parser, ast.walk, the planner
# and the executor all recurse per level; at 64 the deepest of them (this
# parser, 12 frames a level of nested subqueries) needs under 800 of
# Python's default 1000 frames, and a replica executes at about 45.  So the
# verdict is the same at every replica, on any commit or replay path.
MAX_EXPR_DEPTH = 64
_TOO_DEEP = f"expression tree is too large (maximum depth {MAX_EXPR_DEPTH})"
# The most tables one FROM list may join (SQLite's limit too).  A join
# nests one level per table and the planner and executor recurse per
# level, so without a cap a wide FROM list overflows Python's stack.
MAX_JOIN_TABLES = 64

_EXPRESSIONS = frozenset({
    ast.Literal, ast.Parameter, ast.ColumnRef, ast.Unary, ast.Binary, ast.IsNull,
    ast.InList, ast.Between, ast.InSelect, ast.ScalarSubquery, ast.Exists,
    ast.FunctionCall, ast.CaseExpr,
})


def parse(sql: str):
    """Parse one statement; raises :class:`SqlSyntaxError` for anything else."""
    statements = parse_script(sql)
    if len(statements) != 1:
        raise SqlSyntaxError(f"expected exactly one statement, found {len(statements)}")
    return statements[0]


def parse_script(sql: str) -> list:
    """Parse a semicolon-separated sequence of statements."""
    parser = _Parser(tokenize(sql))
    statements = []
    while not parser.at_end():
        if parser.accept_op(";"):
            continue
        statements.append(_check_depth(parser.statement()))
    return statements


def _check_depth(stmt):
    """``stmt``, unless an expression in it nests past MAX_EXPR_DEPTH.  An
    operator chain is parsed by a loop, so its height shows only in the
    finished tree; this walk keeps its own stack."""
    stack = [(stmt, 0)]
    while stack:
        node, depth = stack.pop()
        depth += type(node) in _EXPRESSIONS
        if depth > MAX_EXPR_DEPTH:
            raise SqlError(_TOO_DEEP)
        stack.extend((child, depth) for child in ast.children(node))
    return stmt


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self._param_auto = 0
        self._depth = 0

    # -- token plumbing --------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != T_EOF:
            self.pos += 1
        return token

    def at_end(self) -> bool:
        return self.peek().kind == T_EOF

    def accept_kw(self, *words: str) -> Optional[Token]:
        token = self.peek()
        if token.kind == T_KEYWORD and token.text in words:
            return self.next()
        return None

    def expect_kw(self, word: str) -> Token:
        token = self.accept_kw(word)
        if token is None:
            raise SqlSyntaxError(f"expected {word}, found {self.peek().text!r}")
        return token

    def accept_op(self, op: str) -> Optional[Token]:
        token = self.peek()
        if token.kind == T_OP and token.text == op:
            return self.next()
        return None

    def expect_op(self, op: str) -> Token:
        token = self.accept_op(op)
        if token is None:
            raise SqlSyntaxError(f"expected {op!r}, found {self.peek().text!r}")
        return token

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind == T_IDENT:
            self.next()
            return token.text
        # Allow non-reserved type keywords as identifiers where sensible.
        if token.kind == T_KEYWORD and token.text in ("TEXT", "BLOB", "REAL", "INTEGER", "KEY"):
            self.next()
            return token.text
        raise SqlSyntaxError(f"expected identifier, found {token.text!r}")

    # -- statements ------------------------------------------------------------

    def statement(self):
        token = self.peek()
        if token.is_kw("EXPLAIN"):
            self.next()
            return ast.Explain(statement=self.statement())
        if token.is_kw("SELECT"):
            return self.select()
        if token.is_kw("INSERT"):
            return self.insert()
        if token.is_kw("UPDATE"):
            return self.update()
        if token.is_kw("DELETE"):
            return self.delete()
        if token.is_kw("CREATE"):
            return self.create()
        if token.is_kw("DROP"):
            return self.drop()
        if token.is_kw("ALTER"):
            return self.alter()
        if token.is_kw("BEGIN"):
            self.next()
            self.accept_kw("TRANSACTION")
            return ast.Begin()
        if token.is_kw("COMMIT"):
            self.next()
            self.accept_kw("TRANSACTION")
            return ast.Commit()
        if token.is_kw("ROLLBACK"):
            self.next()
            self.accept_kw("TRANSACTION")
            return ast.Rollback()
        raise SqlSyntaxError(f"unexpected token {token.text!r}")

    def create(self):
        self.expect_kw("CREATE")
        unique = self.accept_kw("UNIQUE") is not None
        if self.accept_kw("TABLE"):
            if unique:
                raise SqlSyntaxError("UNIQUE applies to indexes, not tables")
            return self.create_table()
        self.expect_kw("INDEX")
        return self.create_index(unique)

    def create_table(self) -> ast.CreateTable:
        if_not_exists = self._if_not_exists()
        name = self.expect_ident()
        self.expect_op("(")
        columns = []
        while True:
            columns.append(self.column_def())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return ast.CreateTable(
            name=name, columns=tuple(columns), if_not_exists=if_not_exists
        )

    def column_def(self) -> ast.ColumnDef:
        name = self.expect_ident()
        type_words = []
        while True:
            token = self.peek()
            if token.kind == T_IDENT or (
                token.kind == T_KEYWORD
                and token.text in ("INTEGER", "TEXT", "REAL", "BLOB")
            ):
                type_words.append(self.next().text)
            else:
                break
        primary = not_null = unique = False
        default = None
        while True:
            if self.accept_kw("PRIMARY"):
                self.expect_kw("KEY")
                primary = True
            elif self.accept_kw("NOT"):
                self.expect_kw("NULL")
                not_null = True
            elif self.accept_kw("UNIQUE"):
                unique = True
            elif self.accept_kw("DEFAULT"):
                default = self.expression()
            else:
                break
        return ast.ColumnDef(
            name=name,
            declared_type=" ".join(type_words),
            primary_key=primary,
            not_null=not_null,
            unique=unique,
            default=default,
        )

    def create_index(self, unique: bool) -> ast.CreateIndex:
        if_not_exists = self._if_not_exists()
        name = self.expect_ident()
        self.expect_kw("ON")
        table = self.expect_ident()
        self.expect_op("(")
        columns = [self.expect_ident()]
        while self.accept_op(","):
            columns.append(self.expect_ident())
        self.expect_op(")")
        return ast.CreateIndex(
            name=name,
            table=table,
            columns=tuple(columns),
            unique=unique,
            if_not_exists=if_not_exists,
        )

    def _if_not_exists(self) -> bool:
        if self.accept_kw("IF"):
            self.expect_kw("NOT")
            self.expect_kw("EXISTS")
            return True
        return False

    def drop(self):
        self.expect_kw("DROP")
        is_index = self.accept_kw("INDEX") is not None
        if not is_index:
            self.expect_kw("TABLE")
        if_exists = False
        if self.accept_kw("IF"):
            self.expect_kw("EXISTS")
            if_exists = True
        name = self.expect_ident()
        if is_index:
            return ast.DropIndex(name=name, if_exists=if_exists)
        return ast.DropTable(name=name, if_exists=if_exists)

    def alter(self) -> ast.AlterTableAddColumn:
        self.expect_kw("ALTER")
        self.expect_kw("TABLE")
        table = self.expect_ident()
        self.expect_kw("ADD")
        self.accept_kw("COLUMN")
        column = self.column_def()
        if column.primary_key or column.unique:
            raise SqlSyntaxError(
                "ADD COLUMN cannot declare PRIMARY KEY or UNIQUE (as in SQLite)"
            )
        return ast.AlterTableAddColumn(table=table, column=column)

    def insert(self) -> ast.Insert:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.expect_ident()
        columns: list[str] = []
        if self.accept_op("("):
            columns.append(self.expect_ident())
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        self.expect_kw("VALUES")
        rows = []
        while True:
            self.expect_op("(")
            row = [self.expression()]
            while self.accept_op(","):
                row.append(self.expression())
            self.expect_op(")")
            rows.append(tuple(row))
            if not self.accept_op(","):
                break
        return ast.Insert(table=table, columns=tuple(columns), rows=tuple(rows))

    def update(self) -> ast.Update:
        self.expect_kw("UPDATE")
        table = self.expect_ident()
        self.expect_kw("SET")
        assignments = []
        while True:
            column = self.expect_ident()
            self.expect_op("=")
            assignments.append((column, self.expression()))
            if not self.accept_op(","):
                break
        where = self.expression() if self.accept_kw("WHERE") else None
        return ast.Update(table=table, assignments=tuple(assignments), where=where)

    def delete(self) -> ast.Delete:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.expect_ident()
        where = self.expression() if self.accept_kw("WHERE") else None
        return ast.Delete(table=table, where=where)

    def select(self) -> ast.Select:
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT") is not None
        items = [self.select_item()]
        while self.accept_op(","):
            items.append(self.select_item())
        source = None
        if self.accept_kw("FROM"):
            source = self.table_source()
        where = self.expression() if self.accept_kw("WHERE") else None
        group_by: tuple = ()
        having = None
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            groups = [self.expression()]
            while self.accept_op(","):
                groups.append(self.expression())
            group_by = tuple(groups)
            if self.accept_kw("HAVING"):
                having = self.expression()
        order_by: list[ast.OrderItem] = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            while True:
                expr = self.expression()
                descending = False
                if self.accept_kw("DESC"):
                    descending = True
                elif self.accept_kw("ASC"):
                    pass
                order_by.append(ast.OrderItem(expr=expr, descending=descending))
                if not self.accept_op(","):
                    break
        limit = offset = None
        if self.accept_kw("LIMIT"):
            limit = self.expression()
            if self.accept_kw("OFFSET"):
                offset = self.expression()
            elif self.accept_op(","):
                # LIMIT offset, count (MySQL-compatible form SQLite allows)
                offset = limit
                limit = self.expression()
        return ast.Select(
            items=tuple(items),
            source=source,
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def select_item(self) -> ast.SelectItem:
        if self.accept_op("*"):
            return ast.SelectItem(expr=None, star=True)
        # table.* form
        token = self.peek()
        if (
            token.kind == T_IDENT
            and self.tokens[self.pos + 1].kind == T_OP
            and self.tokens[self.pos + 1].text == "."
            and self.tokens[self.pos + 2].kind == T_OP
            and self.tokens[self.pos + 2].text == "*"
        ):
            table = self.next().text
            self.next()
            self.next()
            return ast.SelectItem(expr=None, star=True, star_table=table)
        expr = self.expression()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == T_IDENT:
            alias = self.next().text
        return ast.SelectItem(expr=expr, alias=alias)

    def table_source(self):
        left: object = self.table_ref()
        tables = 1
        while True:
            kind = None
            if self.accept_kw("JOIN"):
                kind = "INNER"
            elif self.accept_kw("INNER"):
                self.expect_kw("JOIN")
                kind = "INNER"
            elif self.accept_kw("LEFT"):
                self.expect_kw("JOIN")
                kind = "LEFT"
            elif self.accept_kw("CROSS"):
                self.expect_kw("JOIN")
                kind = "CROSS"
            elif self.accept_op(","):
                kind = "CROSS"
            else:
                return left
            tables += 1
            if tables > MAX_JOIN_TABLES:
                raise SqlError(f"at most {MAX_JOIN_TABLES} tables in a join")
            right = self.table_ref()
            on = None
            if kind != "CROSS" and self.accept_kw("ON"):
                on = self.expression()
            left = ast.Join(left=left, right=right, on=on, kind=kind)

    def table_ref(self) -> ast.TableRef:
        name = self.expect_ident()
        alias = None
        if self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.peek().kind == T_IDENT:
            alias = self.next().text
        return ast.TableRef(name=name, alias=alias)

    # -- expressions (precedence climbing) ------------------------------------------

    def expression(self):
        return self._nested(self.expr_or)

    def _nested(self, parse):
        """Parse one level deeper, refusing to pass MAX_EXPR_DEPTH."""
        self._depth += 1
        if self._depth > MAX_EXPR_DEPTH:
            raise SqlError(_TOO_DEEP)
        node = parse()
        self._depth -= 1
        return node

    def expr_or(self):
        left = self.expr_and()
        while self.accept_kw("OR"):
            left = ast.Binary("OR", left, self.expr_and())
        return left

    def expr_and(self):
        left = self.expr_not()
        while self.accept_kw("AND"):
            left = ast.Binary("AND", left, self.expr_not())
        return left

    def expr_not(self):
        if (
            self.peek().is_kw("NOT")
            and self.tokens[self.pos + 1].is_kw("EXISTS")
        ):
            self.next()
            self.next()
            self.expect_op("(")
            subquery = self.select()
            self.expect_op(")")
            return ast.Exists(select=subquery, negated=True)
        if self.accept_kw("NOT"):
            return ast.Unary("NOT", self._nested(self.expr_not))
        if self.peek().is_kw("EXISTS"):
            self.next()
            self.expect_op("(")
            subquery = self.select()
            self.expect_op(")")
            return ast.Exists(select=subquery)
        return self.expr_comparison()

    def expr_comparison(self):
        left = self.expr_additive()
        while True:
            negated = False
            if (
                self.peek().is_kw("NOT")
                and self.tokens[self.pos + 1].kind == T_KEYWORD
                and self.tokens[self.pos + 1].text in ("IN", "LIKE", "BETWEEN")
            ):
                self.next()
                negated = True
            token = self.peek()
            if token.kind == T_OP and token.text in ("=", "==", "!=", "<>", "<", "<=", ">", ">="):
                op = self.next().text
                op = {"==": "=", "<>": "!="}.get(op, op)
                left = ast.Binary(op, left, self.expr_additive())
            elif token.is_kw("IS"):
                self.next()
                neg = self.accept_kw("NOT") is not None
                self.expect_kw("NULL")
                left = ast.IsNull(operand=left, negated=neg)
            elif token.is_kw("IN"):
                self.next()
                self.expect_op("(")
                if self.peek().is_kw("SELECT"):
                    subquery = self.select()
                    self.expect_op(")")
                    left = ast.InSelect(operand=left, select=subquery, negated=negated)
                    continue
                items = [self.expression()]
                while self.accept_op(","):
                    items.append(self.expression())
                self.expect_op(")")
                left = ast.InList(operand=left, items=tuple(items), negated=negated)
            elif token.is_kw("LIKE"):
                self.next()
                left = ast.Binary("LIKE", left, self.expr_additive())
                if negated:
                    left = ast.Unary("NOT", left)
            elif token.is_kw("BETWEEN"):
                self.next()
                low = self.expr_additive()
                self.expect_kw("AND")
                high = self.expr_additive()
                left = ast.Between(operand=left, low=low, high=high, negated=negated)
            else:
                if negated:
                    raise SqlSyntaxError("dangling NOT")
                return left

    def expr_additive(self):
        left = self.expr_multiplicative()
        while True:
            token = self.peek()
            if token.kind == T_OP and token.text in ("+", "-", "||"):
                op = self.next().text
                left = ast.Binary(op, left, self.expr_multiplicative())
            else:
                return left

    def expr_multiplicative(self):
        left = self.expr_unary()
        while True:
            token = self.peek()
            if token.kind == T_OP and token.text in ("*", "/", "%"):
                op = self.next().text
                left = ast.Binary(op, left, self.expr_unary())
            else:
                return left

    def expr_unary(self):
        if self.accept_op("-"):
            return ast.Unary("-", self._nested(self.expr_unary))
        if self.accept_op("+"):
            return ast.Unary("+", self._nested(self.expr_unary))
        return self.expr_primary()

    def expr_primary(self):
        token = self.peek()
        if token.kind == T_NUMBER:
            self.next()
            return ast.Literal(token.value)
        if token.kind == T_STRING:
            self.next()
            return ast.Literal(token.value)
        if token.kind == T_BLOB:
            self.next()
            return ast.Literal(token.value)
        if token.kind == T_PARAM:
            self.next()
            if token.value is not None:
                return ast.Parameter(index=token.value - 1)
            index = self._param_auto
            self._param_auto += 1
            return ast.Parameter(index=index)
        if token.is_kw("NULL"):
            self.next()
            return ast.Literal(SqlNull)
        if token.is_kw("CASE"):
            return self.case_expression()
        if self.accept_op("("):
            if self.peek().is_kw("SELECT"):
                subquery = self.select()
                self.expect_op(")")
                return ast.ScalarSubquery(select=subquery)
            expr = self.expression()
            self.expect_op(")")
            return expr
        if token.kind == T_IDENT or (
            token.kind == T_KEYWORD and token.text in ("TEXT", "BLOB", "REAL", "INTEGER")
        ):
            name = self.next().text
            if self.accept_op("("):
                return self.function_call(name)
            if self.accept_op("."):
                column = self.expect_ident()
                return ast.ColumnRef(name=column, table=name)
            return ast.ColumnRef(name=name)
        raise SqlSyntaxError(f"unexpected token {token.text!r} in expression")

    def function_call(self, name: str) -> ast.FunctionCall:
        if self.accept_op("*"):
            self.expect_op(")")
            return ast.FunctionCall(name=name.lower(), args=(), star=True)
        distinct = self.accept_kw("DISTINCT") is not None
        args = []
        if not self.accept_op(")"):
            args.append(self.expression())
            while self.accept_op(","):
                args.append(self.expression())
            self.expect_op(")")
        return ast.FunctionCall(
            name=name.lower(), args=tuple(args), distinct=distinct
        )

    def case_expression(self) -> ast.CaseExpr:
        self.expect_kw("CASE")
        operand = None
        if not self.peek().is_kw("WHEN"):
            operand = self.expression()
        whens = []
        while self.accept_kw("WHEN"):
            condition = self.expression()
            self.expect_kw("THEN")
            whens.append((condition, self.expression()))
        default = self.expression() if self.accept_kw("ELSE") else None
        self.expect_kw("END")
        if not whens:
            raise SqlSyntaxError("CASE requires at least one WHEN")
        return ast.CaseExpr(operand=operand, whens=tuple(whens), default=default)
