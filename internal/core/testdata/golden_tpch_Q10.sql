-- tpch/Q10, registry seed 1: app_invocations=273
select customer.c_custkey, customer.c_name, sum(lineitem.l_extendedprice * (1 - lineitem.l_discount)) as revenue, customer.c_acctbal, nation.n_name, customer.c_address, customer.c_phone
from nation, customer, orders, lineitem
where customer.c_custkey = orders.o_custkey and customer.c_nationkey = nation.n_nationkey and lineitem.l_orderkey = orders.o_orderkey and orders.o_orderdate between date '1993-10-01' and date '1993-12-31' and lineitem.l_returnflag = 'R'
group by nation.n_name, customer.c_custkey, customer.c_name, customer.c_address, customer.c_phone, customer.c_acctbal
order by revenue desc
limit 20;
